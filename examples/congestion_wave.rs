//! Congestion-wave propagation on a parking-lot chain (ROADMAP item 4).
//!
//! Following Stéger/Vaderna/Vattay ("On the Propagation of Congestion
//! Waves in the Internet"), a local overload should not stay local: the
//! hop that loses capacity fills first, and the disturbance then travels
//! along the chain as upstream senders back off and downstream hops
//! starve. This example triggers exactly that — halfway through the run
//! the middle hop's bandwidth collapses to 10% — and reads the wave off
//! the per-hop queue/utilization series (`trace_hops`):
//!
//! ```text
//!   g0   g1   g2   g3   g4        gN = flows_per_hop sources
//!    \    \    \    \    \
//!     R0 ==> R1 ==> R2 ==> R3 ==> R4 ==> sink
//!    hop0  hop1  hop2* hop3  hop4       (* capacity x0.1 from T/2)
//! ```
//!
//! For every hop the onset time is the first sample after the impairment
//! where the backlog exceeds its pre-impairment peak (congestion arriving)
//! or the utilization dips hard below its pre-impairment mean and stays
//! down (starvation arriving). The measurement is replicated across seeds and
//! executed twice — serially and on a work-stealing pool — and the two
//! onset tables must match bit for bit.
//!
//! ```text
//! cargo run --release --example congestion_wave [hops] [flows_per_hop] [seconds] [jobs]
//! ```

use std::env;

use tcpburst_core::{run_indexed, Scenario, ScenarioBuilder, ScenarioReport, TopoKind};
use tcpburst_des::SimDuration;

/// Confirmation window: one c.o.v. bin is one round-trip propagation delay
/// (~44 ms on paper parameters), so requiring the next 10 bins to average
/// low too rejects single-bin Poisson dips without delaying the onset
/// stamp — the stamp is the *first* deviating bin.
const CONFIRM_BINS: usize = 10;

/// Per-hop onset times (seconds since the impairment hit), `None` when the
/// hop never deviated from its pre-impairment baseline. A hop is "reached"
/// by the wave when its backlog exceeds the pre-impairment peak (congestion
/// arriving) or its utilization drops under half the pre-impairment mean
/// and the following [`CONFIRM_BINS`] stay 20% under it (starvation
/// arriving).
fn onsets(report: &ScenarioReport, t_impair: f64) -> Vec<Option<f64>> {
    let hops = report.hop_series.as_ref().expect("trace_hops was on");
    hops.occupancy
        .iter()
        .zip(&hops.utilization)
        .map(|(occ, util)| {
            let before = |t: tcpburst_des::SimTime| t.as_secs_f64() < t_impair;
            let base_occ = occ
                .iter()
                .filter(|(t, _)| before(*t))
                .map(|(_, v)| v)
                .fold(0.0f64, f64::max);
            let (sum, n) = util
                .iter()
                .filter(|(t, _)| before(*t))
                .fold((0.0f64, 0u32), |(s, n), (_, v)| (s + v, n + 1));
            let base_util = if n == 0 { 0.0 } else { sum / n as f64 };

            let occ_onset = occ
                .iter()
                .filter(|(t, _)| !before(*t))
                .find(|(_, q)| *q > base_occ + 2.0)
                .map(|(t, _)| t.as_secs_f64() - t_impair);

            let post: Vec<(f64, f64)> = util
                .iter()
                .filter(|(t, _)| !before(*t))
                .map(|(t, v)| (t.as_secs_f64(), v))
                .collect();
            let util_onset = post
                .windows(CONFIRM_BINS + 1)
                .find(|w| {
                    let confirm =
                        w[1..].iter().map(|(_, v)| v).sum::<f64>() / CONFIRM_BINS as f64;
                    w[0].1 < 0.5 * base_util && confirm < 0.8 * base_util
                })
                .map(|w| w[0].0 - t_impair);

            match (occ_onset, util_onset) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        })
        .collect()
}

fn main() {
    let mut args = env::args().skip(1);
    let mut next = |default: usize| -> usize {
        args.next()
            .map(|a| a.parse().expect("arguments must be integers"))
            .unwrap_or(default)
    };
    let hops = next(5);
    let flows_per_hop = next(4);
    let seconds = next(60) as u64;
    let jobs = next(4);
    let seeds: Vec<u64> = (0..4).collect();
    let t_impair = seconds as f64 / 2.0;

    let cfg_for = |seed: u64| {
        ScenarioBuilder::paper()
            .topology(|t| t.shape(TopoKind::ParkingLot { hops, flows_per_hop }))
            // The middle hop loses 90% of its bandwidth at T/2 and gets it
            // back exactly when the run ends: one clean overload window.
            .impairments(|i| i.capacity(0.1, SimDuration::from_secs(seconds / 2)))
            .instrumentation(|i| i.secs(seconds).seed(seed).trace_hops(true))
            .finish()
    };

    // Same measurement, serial and parallel: parallelism here is across
    // the seed replicas — the onset tables must still agree exactly.
    let serial: Vec<Vec<Option<f64>>> = seeds
        .iter()
        .map(|&s| onsets(&Scenario::run(&cfg_for(s)), t_impair))
        .collect();
    let pooled: Vec<Vec<Option<f64>>> = run_indexed(jobs, seeds.len(), |i| {
        onsets(&Scenario::run(&cfg_for(seeds[i])), t_impair)
    });
    assert_eq!(serial, pooled, "onset tables diverged across job counts");

    println!(
        "congestion wave: parking-lot:{hops},{flows_per_hop}, {seconds}s, \
         middle hop (hop {}) at 10% capacity from t={t_impair}s",
        hops / 2
    );
    println!("per-hop onset of the disturbance (s after impairment), by seed:");
    print!("{:>6}", "hop");
    for s in &seeds {
        print!("{:>10}", format!("seed {s}"));
    }
    println!();
    for h in 0..hops {
        print!("{h:>6}");
        for table in &serial {
            match table[h] {
                Some(dt) => print!("{dt:>10.3}"),
                None => print!("{:>10}", "-"),
            }
        }
        println!();
    }
    println!("identical across --jobs 1 and --jobs {jobs}: yes (asserted)");
}
