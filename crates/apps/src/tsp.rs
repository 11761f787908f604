//! Branch-and-bound travelling salesman search.
//!
//! This program is not part of the paper's evaluation; it exists to exercise
//! the protocols the two headline programs do not touch:
//!
//! * the distance table is `read_only`,
//! * the global best tour length is a `reduction` object maintained with
//!   `Fetch_and_min` (the paper's own example of a reduction object is "the
//!   global minimum in a parallel minimum path algorithm"),
//! * the best tour itself is a `migratory` record protected by a lock, with
//!   `AssociateDataAndSynch` so the record travels with the lock.
//!
//! Work is partitioned statically: worker *w* explores the subtrees rooted at
//! the tours that start `0 → c` for every city `c ≡ w (mod workers)`.

use munin_core::{MuninConfig, MuninProgram, SharingAnnotation};
use munin_sim::CostModel;

use crate::measure::RunMeasurement;
use crate::workloads::tsp_distance_matrix;

/// Parameters of a TSP run.
#[derive(Clone, Copy, Debug)]
pub struct TspParams {
    /// Number of cities (keep ≤ 12; the search is exhaustive).
    pub cities: usize,
    /// Number of processors.
    pub procs: usize,
    /// Event-engine configuration (schedule seed, fault injection).
    pub engine: munin_sim::EngineConfig,
    /// Access-detection mode (explicit checks or real VM write traps).
    pub access_mode: munin_core::AccessMode,
}

impl TspParams {
    /// A moderate instance: 10 cities.
    pub fn default_instance(procs: usize) -> Self {
        TspParams {
            cities: 10,
            procs,
            engine: munin_sim::EngineConfig::from_env(),
            access_mode: munin_core::AccessMode::from_env(),
        }
    }
}

/// Result of a TSP run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TspResult {
    /// Length of the best tour found.
    pub best_len: i64,
    /// The best tour (city order, starting at city 0).
    pub best_tour: Vec<i64>,
}

/// Exhaustive serial reference.
pub fn serial(cities: usize) -> TspResult {
    let dist = tsp_distance_matrix(cities);
    let mut best = TspResult {
        best_len: i64::MAX,
        best_tour: Vec::new(),
    };
    let mut tour = vec![0i64];
    let mut used = vec![false; cities];
    used[0] = true;
    fn dfs(
        cities: usize,
        dist: &[i64],
        tour: &mut Vec<i64>,
        used: &mut Vec<bool>,
        len: i64,
        best: &mut TspResult,
    ) {
        if len >= best.best_len {
            return;
        }
        if tour.len() == cities {
            let total = len + dist[(tour[cities - 1] as usize) * cities];
            if total < best.best_len {
                best.best_len = total;
                best.best_tour = tour.clone();
            }
            return;
        }
        let last = *tour.last().expect("tour is never empty") as usize;
        for next in 1..cities {
            if !used[next] {
                used[next] = true;
                tour.push(next as i64);
                dfs(
                    cities,
                    dist,
                    tour,
                    used,
                    len + dist[last * cities + next],
                    best,
                );
                tour.pop();
                used[next] = false;
            }
        }
    }
    dfs(cities, &dist, &mut tour, &mut used, 0, &mut best);
    best
}

/// Sequential branch-and-bound below a fixed first hop, pruning against
/// `bound` and returning the best completion found (if better than `bound`).
#[allow(clippy::too_many_arguments)]
fn search_subtree(
    cities: usize,
    dist: &[i64],
    tour: &mut Vec<i64>,
    used: &mut Vec<bool>,
    len: i64,
    bound: &mut i64,
    best_tour: &mut Vec<i64>,
    explored: &mut u64,
) {
    *explored += 1;
    if len >= *bound {
        return;
    }
    if tour.len() == cities {
        let total = len + dist[(tour[cities - 1] as usize) * cities];
        if total < *bound {
            *bound = total;
            *best_tour = tour.clone();
        }
        return;
    }
    let last = *tour.last().expect("tour is never empty") as usize;
    for next in 1..cities {
        if !used[next] {
            used[next] = true;
            tour.push(next as i64);
            search_subtree(
                cities,
                dist,
                tour,
                used,
                len + dist[last * cities + next],
                bound,
                best_tour,
                explored,
            );
            tour.pop();
            used[next] = false;
        }
    }
}

/// Runs the Munin version and returns the measurement and the result.
pub fn run_munin(
    params: TspParams,
    cost: CostModel,
) -> munin_core::Result<(RunMeasurement, TspResult)> {
    let cities = params.cities;
    let cfg = MuninConfig::paper(params.procs)
        .with_cost(cost)
        .with_engine(params.engine)
        .with_access_mode(params.access_mode);
    let mut prog = MuninProgram::new(cfg);
    let dist = prog.declare::<i64>("distances", cities * cities, SharingAnnotation::ReadOnly);
    let best_len = prog.declare::<i64>("best_len", 1, SharingAnnotation::Reduction);
    let best_tour = prog.declare::<i64>("best_tour", cities, SharingAnnotation::Migratory);
    let tour_lock = prog.create_lock("best_tour_lock");
    prog.associate_data_and_synch(tour_lock, &best_tour);
    let done = prog.create_barrier("done");
    prog.user_init(move |init| {
        let d = tsp_distance_matrix(cities);
        init.write_slice(&dist, 0, &d).unwrap();
        init.write(&best_len, 0, i64::MAX).unwrap();
    });
    let report = prog.run(move |ctx| {
        let me = ctx.node_id();
        let d = ctx.read_slice(&dist, 0, cities * cities)?;
        let mut local_best_tour: Vec<i64> = Vec::new();
        // Each worker owns the first hops 0 → c with c ≡ me (mod nodes).
        for first in 1..cities {
            if (first - 1) % ctx.nodes() != me {
                continue;
            }
            // Read the current global bound once per subtree, then prune
            // locally; improvements are published with Fetch_and_min.
            let mut bound = ctx.fetch_and_min_i64(&best_len, 0, i64::MAX)?;
            let mut tour = vec![0i64, first as i64];
            let mut used = vec![false; cities];
            used[0] = true;
            used[first] = true;
            let mut explored = 0u64;
            let before = bound;
            search_subtree(
                cities,
                &d,
                &mut tour,
                &mut used,
                d[first],
                &mut bound,
                &mut local_best_tour,
                &mut explored,
            );
            ctx.compute(explored * 4);
            if bound < before {
                // Publish the improved bound and, under the lock, the tour
                // that achieves it (the lock carries the migratory record).
                let previous = ctx.fetch_and_min_i64(&best_len, 0, bound)?;
                if bound < previous {
                    ctx.acquire_lock(tour_lock)?;
                    // Re-check under the lock: another worker may have
                    // published an even better tour in the meantime.
                    let current = ctx.fetch_and_min_i64(&best_len, 0, bound)?;
                    if bound <= current {
                        ctx.write_slice(&best_tour, 0, &local_best_tour)?;
                    }
                    ctx.release_lock(tour_lock)?;
                }
            }
        }
        ctx.wait_at_barrier(done)?;
        // Everyone reads the final bound and, under the lock, the winning
        // tour (the migratory record travels with the lock grant).
        let final_len = ctx.fetch_and_min_i64(&best_len, 0, i64::MAX)?;
        ctx.acquire_lock(tour_lock)?;
        let tour = ctx.read_slice(&best_tour, 0, cities)?;
        ctx.release_lock(tour_lock)?;
        let _ = me;
        Ok((final_len, tour))
    })?;
    if let Some(err) = report.first_error() {
        return Err(err.clone());
    }
    let (best, tour) = report.results[0].as_ref().expect("checked above").clone();
    let measurement = RunMeasurement::new(
        "munin",
        params.procs,
        report.elapsed,
        report.root_times(),
        report.net.clone(),
    )
    .with_stats(report.stats_total())
    .with_engine_stats(report.engine_stats.clone())
    .with_obs(report.obs_total())
    .with_trace_digest(report.trace_digest);
    Ok((
        measurement,
        TspResult {
            best_len: best,
            best_tour: tour,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_finds_a_closed_tour() {
        let r = serial(7);
        assert_eq!(r.best_tour.len(), 7);
        assert_eq!(r.best_tour[0], 0);
        assert!(r.best_len > 0);
    }

    #[test]
    fn munin_tsp_matches_serial_bound() {
        let params = TspParams {
            cities: 8,
            ..TspParams::default_instance(3)
        };
        let (_m, result) = run_munin(params, CostModel::fast_test()).unwrap();
        let reference = serial(8);
        assert_eq!(result.best_len, reference.best_len);
        assert_eq!(result.best_tour.len(), 8);
    }

    #[test]
    fn munin_tsp_single_node() {
        let params = TspParams {
            cities: 7,
            ..TspParams::default_instance(1)
        };
        let (_m, result) = run_munin(params, CostModel::fast_test()).unwrap();
        assert_eq!(result.best_len, serial(7).best_len);
    }

    #[test]
    fn parallel_run_uses_reduction_and_lock_protocols() {
        let params = TspParams {
            cities: 8,
            ..TspParams::default_instance(4)
        };
        let (m, _result) = run_munin(params, CostModel::fast_test()).unwrap();
        assert!(m.net.class("reduce_request").msgs > 0);
        // At least one of the four workers must have obtained the lock from a
        // remote owner when reading the winning tour.
        assert!(m.net.class("lock_grant").msgs > 0);
    }
}
