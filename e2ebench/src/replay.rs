//! Traced replays of `HotspotDetector::scan_layout` and
//! `HotspotDetector::train`, built only from the library's public
//! functions, with one span around every call into a layer.
//!
//! The replays run on one thread and must reproduce the untraced
//! operation's results exactly; the workloads check that they do. Span
//! names are the layer names of the per-layer metrics in `BENCHMARK.json`
//! (`<name>_ms` is the summed self time of the spans called `<name>`).

use crate::trace::{Tracer, NO_REQUEST};
use hotspot_core::balance::upsample_hotspots;
use hotspot_core::engine::Executor;
use hotspot_core::extraction::{passes_filter, split_oversized_into, RectIndex};
use hotspot_core::feedback::train_feedback;
use hotspot_core::journal::TileOutcomeRecord;
use hotspot_core::removal::{discard_redundant, merge_cores, reframe_region, shift_core};
use hotspot_core::scan::RASTER_SUBTILE_CORES;
use hotspot_core::training::{
    classify_patterns_mode, density_grid, feature_vector_padded, train_cluster_kernels_with,
    FeatureMemo, Region,
};
use hotspot_core::{CacheHeader, DetectorConfig, HotspotDetector, Pattern, TileCache, TrainingSet};
use hotspot_geom::{AreaTable, AreaTableGrid, DensityGrid, Point, RasterMode, Rect};
use hotspot_layout::scan::{Tile, TileScanner, TileSpec};
use hotspot_layout::{ClipShape, ClipWindow, LayerId, Layout};
use hotspot_svm::{BatchEvaluator, CompiledModel, TrainError};
use hotspot_topo::{Admission, CentroidRouter, RouteStats, TopoSignature};
use std::collections::HashSet;
use std::path::Path;

/// Root span of a scan replay; its self time is replay glue, not a layer.
pub const SCAN_ROOT: &str = "replay.scan";
/// Root span of a training replay.
pub const TRAIN_ROOT: &str = "replay.train";
/// Per-tile parent span; its self time is loop glue, not a layer.
const TILE: &str = "replay.tile";

/// The detector's inference engine, compiled the way the detector compiles
/// it on first use.
pub struct Compiled {
    kernels: Vec<CompiledModel>,
    feedback: Option<CompiledModel>,
    router: CentroidRouter,
}

impl Compiled {
    pub fn new(det: &HotspotDetector) -> Compiled {
        let config = det.config();
        let grid = config.cluster.grid;
        Compiled {
            kernels: det.kernels().iter().map(|k| k.model.compile()).collect(),
            feedback: det.feedback().map(|f| f.model.compile()),
            router: CentroidRouter::compile(
                det.kernels()
                    .iter()
                    .map(|k| (&k.centroid, config.admission.threshold(k.radius))),
                grid,
                grid,
            ),
        }
    }
}

/// Work counters of one scan replay, measured where the work happens.
#[derive(Debug, Default)]
pub struct ScanCounts {
    pub tiles: usize,
    pub tiles_prefiltered: usize,
    pub clips: usize,
    pub flagged: usize,
    pub reclaimed: usize,
    pub eval_batches: usize,
    pub raster_fallbacks: usize,
    pub route: RouteStats,
    pub feature_extractions: usize,
    pub decisions: usize,
    pub sv_dot_flops: u64,
    pub feedback_calls: usize,
    pub removal_in: usize,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub cache_bytes: u64,
}

/// What a scan replay produced.
pub struct ScanReplay {
    pub reported: Vec<ClipWindow>,
    pub counts: ScanCounts,
}

/// Tile cache settings of a replayed re-scan.
pub struct ReplayCache<'a> {
    pub path: &'a Path,
    pub model_fingerprint: u64,
}

/// Per-worker buffers, reused across tiles like the scan's own scratch.
#[derive(Default)]
struct Scratch {
    pieces: Vec<Rect>,
    seen: HashSet<Point>,
    patterns: Vec<Pattern>,
    windows: Vec<Rect>,
    tables: AreaTableGrid,
    grid: DensityGrid,
    eval: BatchEvaluator,
    admissions: Vec<Admission>,
}

/// Replays `scan_layout` over `layout` on one thread: tiling, the density
/// prefilter, clip extraction, per-clip evaluation, the feedback kernel and
/// redundant-clip removal, plus the tile cache when `cache` is set.
pub fn scan(
    tr: &mut Tracer,
    det: &HotspotDetector,
    compiled: &Compiled,
    layout: &Layout,
    layer: LayerId,
    tile_cores: usize,
    cache: Option<ReplayCache<'_>>,
) -> ScanReplay {
    let config = det.config();
    let shape = config.clip_shape;
    let threshold = config.decision_threshold;
    let mut counts = ScanCounts::default();
    let mut scratch = Scratch::default();
    let mut flagged_cores: Vec<Rect> = Vec::new();

    let root = tr.begin(SCAN_ROOT, NO_REQUEST);
    let index = tr.leaf("core.extraction.index", NO_REQUEST, || {
        RectIndex::from_layout(layout, layer, shape.clip_side())
    });
    let spec = TileSpec::new(
        shape.core_side() * tile_cores as i64,
        shape.ambit() + shape.core_side(),
    )
    .expect("valid tile spec");
    let mut scanner = tr.leaf("layout.scan.tile", NO_REQUEST, || {
        TileScanner::from_rects(index.rects().to_vec(), spec)
    });
    let cols = scanner.grid().cols();
    let mut tile_cache = cache.as_ref().map(|c| {
        tr.leaf("core.tile_cache.open", NO_REQUEST, || {
            TileCache::open(
                c.path,
                CacheHeader::new(c.model_fingerprint, tile_cores, layer, threshold, None),
            )
        })
    });

    loop {
        let next = tr.leaf("layout.scan.tile", NO_REQUEST, || scanner.next());
        let Some(tile) = next else { break };
        counts.tiles += 1;
        let id = (tile.iy * cols + tile.ix) as usize;
        let req = id as i64;
        let tile_span = tr.begin(TILE, req);
        let mut fingerprint = 0;
        if let Some(cache) = tile_cache.as_mut() {
            fingerprint = tr.leaf("layout.scan.fingerprint", req, || {
                tile.content_fingerprint()
            });
            let hit = tr.leaf("core.tile_cache.lookup", req, || {
                cache.lookup(id, fingerprint).cloned()
            });
            if let Some(local) = hit {
                counts.cache_hits += 1;
                let global = translate(&local, tile.window.min());
                fold(&global, &mut counts, &mut flagged_cores);
                tr.leaf("core.tile_cache.lookup", req, || {
                    cache.record(id, fingerprint, local)
                });
                tr.end(tile_span);
                continue;
            }
            counts.cache_misses += 1;
        }
        let record = eval_tile(
            tr,
            req,
            &tile,
            &index,
            det,
            compiled,
            &mut scratch,
            &mut counts,
        );
        fold(&record, &mut counts, &mut flagged_cores);
        if let Some(cache) = tile_cache.as_mut() {
            let local = translate(&record, -tile.window.min());
            tr.leaf("core.tile_cache.lookup", req, || {
                cache.record(id, fingerprint, local)
            });
        }
        tr.end(tile_span);
    }

    counts.removal_in = flagged_cores.len();
    let reported = if config.ablation.removal {
        removal(tr, flagged_cores, shape, &index, config)
    } else {
        flagged_cores
            .into_iter()
            .map(|core| window_for_core(core, shape))
            .collect()
    };

    if let (Some(cache), Some(c)) = (&tile_cache, &cache) {
        tr.leaf("core.tile_cache.store", NO_REQUEST, || cache.store())
            .expect("tile cache write-back");
        counts.cache_bytes = std::fs::metadata(c.path).map_or(0, |m| m.len());
    }
    tr.end(root);
    ScanReplay { reported, counts }
}

/// Folds one tile outcome into the scan totals, as the scan's batch
/// aggregation does.
fn fold(record: &TileOutcomeRecord, counts: &mut ScanCounts, flagged_cores: &mut Vec<Rect>) {
    match record {
        TileOutcomeRecord::Prefiltered => counts.tiles_prefiltered += 1,
        TileOutcomeRecord::Evaluated {
            clips,
            flagged,
            reclaimed,
            flagged_cores: cores,
        } => {
            counts.clips += clips;
            counts.flagged += flagged;
            counts.reclaimed += reclaimed;
            counts.eval_batches += usize::from(*clips > 0);
            flagged_cores.extend_from_slice(cores);
        }
    }
}

/// Moves a tile outcome's flagged cores by `delta` (tile-local ⇄ layout
/// coordinates), as the tile cache stores them.
fn translate(record: &TileOutcomeRecord, delta: Point) -> TileOutcomeRecord {
    match record {
        TileOutcomeRecord::Prefiltered => TileOutcomeRecord::Prefiltered,
        TileOutcomeRecord::Evaluated {
            clips,
            flagged,
            reclaimed,
            flagged_cores,
        } => TileOutcomeRecord::Evaluated {
            clips: *clips,
            flagged: *flagged,
            reclaimed: *reclaimed,
            flagged_cores: flagged_cores.iter().map(|r| r.translate(delta)).collect(),
        },
    }
}

/// Prefilters, extracts and evaluates the clips one tile owns.
#[allow(clippy::too_many_arguments)]
fn eval_tile(
    tr: &mut Tracer,
    req: i64,
    tile: &Tile,
    index: &RectIndex,
    det: &HotspotDetector,
    compiled: &Compiled,
    scratch: &mut Scratch,
    counts: &mut ScanCounts,
) -> TileOutcomeRecord {
    let config = det.config();
    let shape = config.clip_shape;
    let cut = tr.leaf("core.scan.prefilter", req, || {
        let covered: i64 = tile
            .rects
            .iter()
            .map(|r| r.overlap_area(&tile.window))
            .sum();
        let core_area = (shape.core_side() * shape.core_side()) as f64;
        (covered as f64) < config.distribution.min_core_density * core_area
    });
    if cut {
        return TileOutcomeRecord::Prefiltered;
    }

    let Scratch {
        pieces,
        seen,
        patterns,
        windows,
        tables,
        grid,
        eval,
        admissions,
    } = scratch;
    tr.leaf("core.extraction.extract", req, || {
        split_oversized_into(&tile.rects, shape.core_side(), pieces);
        seen.clear();
        patterns.clear();
        for piece in pieces.iter() {
            let anchor = piece.min();
            if !tile.region.contains_point(anchor) || !seen.insert(anchor) {
                continue;
            }
            let window = shape.window_from_core_corner(anchor);
            let pattern = Pattern::new(window, &index.query(&window.clip));
            if passes_filter(&pattern, &config.distribution) {
                patterns.push(pattern);
            }
        }
    });

    let tables_live = config.raster_mode == RasterMode::Sat && !patterns.is_empty();
    if tables_live {
        tr.leaf("geom.sat.raster", req, || {
            windows.clear();
            windows.extend(patterns.iter().map(|p| p.window.core));
            tables.rebuild_for(
                &tile.region,
                shape.core_side() * RASTER_SUBTILE_CORES,
                shape.core_side(),
                &tile.rects,
                AreaTable::DEFAULT_MAX_CELLS,
                windows,
            );
        });
    }

    let mut flagged = 0;
    let mut reclaimed = 0;
    let mut flagged_cores = Vec::new();
    let tables = tables_live.then_some(&*tables);
    let mut clip = Clip {
        tr,
        req,
        det,
        compiled,
        grid,
        eval,
        admissions,
        counts,
    };
    for pattern in patterns.iter() {
        let (is_flagged, is_reclaimed) = clip.evaluate(pattern, tables);
        if is_flagged {
            flagged += 1;
            if is_reclaimed {
                reclaimed += 1;
            } else {
                flagged_cores.push(pattern.window.core);
            }
        }
    }
    TileOutcomeRecord::Evaluated {
        clips: patterns.len(),
        flagged,
        reclaimed,
        flagged_cores,
    }
}

/// Borrowed state of one clip evaluation.
struct Clip<'a> {
    tr: &'a mut Tracer,
    req: i64,
    det: &'a HotspotDetector,
    compiled: &'a Compiled,
    grid: &'a mut DensityGrid,
    eval: &'a mut BatchEvaluator,
    admissions: &'a mut Vec<Admission>,
    counts: &'a mut ScanCounts,
}

impl Clip<'_> {
    /// `(flagged by the kernels, reclaimed by the feedback kernel)`, as
    /// the detector's evaluation engine decides them.
    fn evaluate(&mut self, pattern: &Pattern, tables: Option<&AreaTableGrid>) -> (bool, bool) {
        let config = self.det.config();
        let req = self.req;
        let tr = &mut *self.tr;
        let window = pattern.window.core;
        let (local, rects) = tr.leaf("core.eval.clip", req, || {
            let rects: Vec<Rect> = pattern
                .rects
                .iter()
                .filter_map(|r| r.intersection(&window))
                .map(|r| r.translate(-window.min()))
                .collect();
            (
                Rect::from_extents(0, 0, window.width(), window.height()),
                rects,
            )
        });
        let signature = tr.leaf("topo.dirstring.signature", req, || {
            TopoSignature::of(&local, &rects)
        });

        let g = config.cluster.grid;
        let grid = &mut *self.grid;
        let filled = tr.leaf("geom.sat.raster", req, || {
            let filled = tables.is_some_and(|t| t.rasterize_into(&window, g, g, grid));
            if !filled {
                *grid = density_grid(pattern, Region::Core, config);
            }
            filled
        });
        if tables.is_some() && !filled {
            self.counts.raster_fallbacks += 1;
        }

        let router = &self.compiled.router;
        assert_eq!(
            (grid.nx(), grid.ny()),
            (router.nx(), router.ny()),
            "the compiled router answers every default-config query"
        );
        let (admissions, route) = (&mut *self.admissions, &mut self.counts.route);
        tr.leaf("topo.route.route", req, || {
            router.route_into(grid, admissions, route)
        });

        let mut memo = FeatureMemo::new(pattern, Region::Core, config);
        let mut extracted = false;
        let mut flagged = false;
        let mut next = 0usize;
        for (idx, k) in self.det.kernels().iter().enumerate() {
            let density_match = admissions.get(next).is_some_and(|a| a.kernel == idx);
            if density_match {
                next += 1;
            }
            if !density_match && signature != k.signature {
                continue;
            }
            extracted = true;
            let features = tr.leaf("core.training.feature", req, || memo.padded(k.feature_len));
            let model = &self.compiled.kernels[idx];
            let eval = &mut *self.eval;
            let decision = tr.leaf("svm.eval.decision", req, || {
                eval.decision_value(model, features)
            });
            self.counts.decisions += 1;
            self.counts.sv_dot_flops += model.flops_per_eval();
            flagged |= decision > config.decision_threshold;
        }
        self.counts.feature_extractions += usize::from(extracted);
        if !flagged {
            return (false, false);
        }

        let feedback = if config.ablation.feedback {
            self.det.feedback().zip(self.compiled.feedback.as_ref())
        } else {
            None
        };
        let Some((fb, model)) = feedback else {
            return (true, false);
        };
        self.counts.feedback_calls += 1;
        let eval = &mut *self.eval;
        let confirms = tr.leaf("core.feedback.confirm", req, || {
            let features = feature_vector_padded(pattern, Region::Clip, config, fb.feature_len);
            eval.decision_value(model, &features) > 0.0
        });
        (true, !confirms)
    }
}

fn window_for_core(core: Rect, shape: ClipShape) -> ClipWindow {
    ClipWindow {
        core,
        clip: core.inflate(shape.ambit()),
    }
}

/// Merges overlapping cores into regions and reframes crowded ones onto a
/// sparse core grid when that shrinks the report (Fig. 12(b)–(c)).
fn merge_and_reframe(cores: &[Rect], core_side: i64, config: &DetectorConfig) -> Vec<Rect> {
    let separation = config.reframe_separation.min(core_side - 1).max(1);
    let mut out: Vec<Rect> = Vec::new();
    for region in merge_cores(cores, config.min_merge_overlap) {
        if region.cores.len() > config.reframe_core_limit {
            let reframed = reframe_region(&region, core_side, separation);
            if reframed.len() < region.cores.len() {
                out.extend(reframed);
                continue;
            }
        }
        out.extend(region.cores);
    }
    out.sort_by_key(|r| (r.min().x, r.min().y));
    out.dedup();
    out
}

/// Redundant clip removal (Fig. 12) in the library's order: merge and
/// reframe, discard, shift, then merge and reframe again.
fn removal(
    tr: &mut Tracer,
    mut cores: Vec<Rect>,
    shape: ClipShape,
    index: &RectIndex,
    config: &DetectorConfig,
) -> Vec<ClipWindow> {
    let core_side = shape.core_side();
    let merged = tr.leaf("core.removal.merge", NO_REQUEST, || {
        cores.sort_by_key(|r| (r.min().x, r.min().y, r.max().x, r.max().y));
        cores.dedup();
        merge_and_reframe(&cores, core_side, config)
    });
    if cores.is_empty() {
        return Vec::new();
    }
    let kept = tr.leaf("core.removal.discard", NO_REQUEST, || {
        discard_redundant(merged, index)
    });
    let shifted: Vec<Rect> = tr.leaf("core.removal.shift", NO_REQUEST, || {
        kept.into_iter()
            .map(|c| {
                shift_core(
                    c,
                    shape,
                    index,
                    config.distribution.max_boundary_bbox_distance,
                )
            })
            .collect()
    });
    let final_cores = tr.leaf("core.removal.merge", NO_REQUEST, || {
        merge_and_reframe(&shifted, core_side, config)
    });
    final_cores
        .into_iter()
        .map(|c| window_for_core(c, shape))
        .collect()
}

/// What a training replay produced: the trained models as JSON (for the
/// byte comparison against `HotspotDetector::train`) and the SMO work.
pub struct TrainReplay {
    pub kernels_json: String,
    pub feedback_json: String,
    pub smo_iterations: u64,
}

/// Replays `HotspotDetector::train` (the default, topology-enabled path):
/// upsampling, topological classification, medoid downsampling, per-cluster
/// kernel training, feedback-kernel training, and the eager compile.
pub fn train(
    tr: &mut Tracer,
    training: &TrainingSet,
    config: &DetectorConfig,
) -> Result<TrainReplay, TrainError> {
    assert!(
        config.ablation.topology,
        "the replay covers the topology-enabled training path"
    );
    let root = tr.begin(TRAIN_ROOT, NO_REQUEST);
    let hotspots = tr.leaf("core.balance.upsample", NO_REQUEST, || {
        upsample_hotspots(&training.hotspots, config.data_shift)
    });
    let (h_clusters, n_clusters) = tr.leaf("topo.cluster.classify", NO_REQUEST, || {
        (
            classify_patterns_mode(&hotspots, Region::Core, &config.cluster, config.raster_mode),
            classify_patterns_mode(
                &training.nonhotspots,
                Region::Core,
                &config.cluster,
                config.raster_mode,
            ),
        )
    });
    let medoids: Vec<Pattern> = tr.leaf("core.balance.downsample", NO_REQUEST, || {
        n_clusters
            .iter()
            .map(|c| training.nonhotspots[c.medoid].clone())
            .collect()
    });
    let executor = Executor::new(config.effective_threads().max(1));
    let kernels = tr
        .leaf("svm.smo.kernel_train", NO_REQUEST, || {
            train_cluster_kernels_with(&hotspots, &h_clusters, &medoids, config, &executor)
        })?
        .0;
    let feedback = if config.ablation.feedback {
        tr.leaf("core.feedback.train", NO_REQUEST, || {
            train_feedback(
                &hotspots,
                &h_clusters,
                &kernels,
                &training.nonhotspots,
                &n_clusters,
                config,
            )
        })?
    } else {
        None
    };
    let grid = config.cluster.grid;
    let engine = tr.leaf("core.detector.compile", NO_REQUEST, || {
        (
            kernels
                .iter()
                .map(|k| k.model.compile())
                .collect::<Vec<_>>(),
            feedback.as_ref().map(|f| f.model.compile()),
            CentroidRouter::compile(
                kernels
                    .iter()
                    .map(|k| (&k.centroid, config.admission.threshold(k.radius))),
                grid,
                grid,
            ),
        )
    });
    std::hint::black_box(engine);
    tr.end(root);

    let smo_iterations = kernels.iter().map(|k| k.model.iterations()).sum::<u64>()
        + feedback.as_ref().map_or(0, |f| f.model.iterations());
    Ok(TrainReplay {
        kernels_json: serde_json::to_string(&kernels).expect("kernels serialise"),
        feedback_json: serde_json::to_string(&feedback).expect("feedback kernel serialises"),
        smo_iterations,
    })
}
