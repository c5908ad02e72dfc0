//! `fig_recovery`: the crash-recovery study — ldp-guard's two recovery
//! paths made runnable and self-gating.
//!
//! 1. **Checkpoint/resume.** A replay checkpointed by fuzzy cuts is
//!    killed mid-run (the simulator is abandoned, as `kill -9` would)
//!    and rebuilt in a fresh simulator from the last committed cut.
//!    Gates: the resumed transcript body AND the drained per-query
//!    telemetry (killed-run events of the cut's completed queries +
//!    resumed remainder, in canonical order, compared via the binary
//!    dump — no string rendering) must be byte-identical to an
//!    uninterrupted same-seed run.
//! 2. **Querier crash.** A `QuerierCrash` fault power-cycles the
//!    querier host mid-replay; `on_restart` re-dispatches the dead
//!    span. Gate: ≥ 99 % of the trace still answered, and at least one
//!    query demonstrably re-dispatched after the restart (so the fault
//!    is live, not a no-op).
//! 3. **Crash storm** (`--storm`). A sustained loss-plus-delay storm
//!    keeps queries on the wire at every completion; the fuzzy-cut
//!    cadence keeps committing with live in-flight state. Gates:
//!    commits in the storm window with `inflight > 0`; the storm
//!    baseline answers the whole trace; and gate 1, applied to the
//!    storm shape, resumes from the mid-storm cut with the in-flight
//!    queries it carries.
//!
//! Exits nonzero if any gate fails.
//!
//! `cargo run --release -p ldp-bench --bin fig_recovery [-- --seed 11 --smoke --storm]`

use ldp_bench::{arg_f64, arg_flag};
use ldp_chaos::recovery::{
    run_killed, run_querier_crash, run_resumed, run_storm_baseline, run_storm_killed,
    run_storm_resumed, run_uninterrupted, spliced_q_events_fuzzy, RecoveryConfig, StormConfig,
};
use ldp_guard::Checkpoint;
use ldp_telemetry as tel;

/// Answered-fraction floor for the querier-crash run (ISSUE 5
/// acceptance criterion).
const OK_FLOOR: f64 = 0.99;

fn cfg_for(seed: u64, smoke: bool) -> RecoveryConfig {
    if smoke {
        RecoveryConfig::smoke(seed)
    } else {
        RecoveryConfig::standard(seed)
    }
}

/// Transcript minus its two header lines (which name the run mode).
fn body(transcript: &str) -> String {
    transcript.lines().skip(2).collect::<Vec<_>>().join("\n")
}

fn storm_cfg_for(seed: u64, smoke: bool) -> StormConfig {
    if smoke {
        StormConfig::smoke(seed)
    } else {
        StormConfig::standard(seed)
    }
}

/// The checkpoint after a trip through its text serialization.
fn round_trip(cp: &Checkpoint) -> Result<Checkpoint, String> {
    cp.to_text()
        .map_err(|e| e.to_string())
        .and_then(|t| Checkpoint::from_text(&t).map_err(|e| e.to_string()))
}

/// The checkpoint/resume gate, for the calm shape (`storm = None`) or
/// a storm: kill, resume from the last committed fuzzy cut, and
/// compare transcript and telemetry with an uninterrupted run. A storm
/// additionally gates on cuts committing through the storm window with
/// live state and on the baseline answering the whole trace. Returns
/// whether the gate passed.
fn resume_gate(name: &str, cfg: &RecoveryConfig, storm: Option<&StormConfig>) -> bool {
    let (base, killed) = match storm {
        None => (run_uninterrupted(cfg), run_killed(cfg)),
        Some(s) => (run_storm_baseline(s), run_storm_killed(s)),
    };
    let mut ok = true;
    if let Some(s) = storm {
        let (from, to) = s.storm_window();
        let in_storm = killed.stamps_in(from, to);
        let live = in_storm.iter().filter(|c| c.inflight > 0).count();
        let commit_ok = live > 0;
        let answered_ok = base.records.len() == cfg.queries;
        println!(
            "gate: {name} — {} v2 commits in window ({live} with live state) {}, baseline answered {}/{} {}",
            in_storm.len(),
            if commit_ok { "ok" } else { "FAIL" },
            base.records.len(),
            cfg.queries,
            if answered_ok { "ok" } else { "FAIL" },
        );
        ok = commit_ok && answered_ok;
    }
    let Some(cp) = killed.checkpoint.clone() else {
        println!("gate: {name} resume — FAIL (no checkpoint committed before the kill)");
        return false;
    };
    let cp = match round_trip(&cp) {
        Ok(c) => c,
        Err(e) => {
            println!("gate: {name} resume — FAIL (checkpoint round-trip: {e})");
            return false;
        }
    };
    let resumed = match storm {
        None => run_resumed(cfg, &cp),
        Some(s) => run_storm_resumed(s, &cp),
    };
    let transcript_ok = body(&resumed.transcript) == body(&base.transcript);
    let spliced = spliced_q_events_fuzzy(&killed, &resumed);
    let mut base_events = base.q_events;
    tel::canonical_order(&mut base_events);
    let tel_diff = tel::diff_logs(&spliced, &base_events);
    let dump_ok = tel::dump_binary(&spliced) == tel::dump_binary(&base_events);
    println!(
        "gate: {name} resume from epoch {} ({} records, {} inflight at the cut) — transcript {}, telemetry {} ({} events)",
        cp.epoch,
        cp.records.len(),
        cp.inflight.len(),
        if transcript_ok { "byte-identical" } else { "MISMATCH" },
        if tel_diff.is_none() && dump_ok { "byte-identical" } else { "MISMATCH" },
        base_events.len(),
    );
    if let Some(ref d) = tel_diff {
        println!("  telemetry divergence: {d}");
    }
    ok && (storm.is_none() || !cp.inflight.is_empty())
        && transcript_ok
        && tel_diff.is_none()
        && dump_ok
}

fn main() {
    let seed = arg_f64("--seed", 11.0) as u64;
    let smoke = arg_flag("--smoke");
    let storm = arg_flag("--storm");
    let mut failed = false;

    let shape = cfg_for(seed, smoke);
    println!(
        "recovery study: {} queries at {} ms spacing over a {} ms-RTT path,",
        shape.queries,
        shape.query_gap.as_nanos() / 1_000_000,
        shape.rtt.as_nanos() / 1_000_000
    );
    println!(
        "fuzzy cut every {} ms, kill at {:.2}s, querier down {} ms from {:.1}s, seed {seed}{}\n",
        shape.cadence.as_nanos() / 1_000_000,
        shape.kill_at.as_secs_f64(),
        shape.down_for.as_nanos() / 1_000_000,
        shape.crash_at.as_secs_f64(),
        if smoke { " (smoke)" } else { "" }
    );

    // Determinism gate: same seed → byte-identical transcripts.
    let first = run_uninterrupted(&shape);
    let rerun_ok = first.transcript == run_uninterrupted(&shape).transcript;
    println!(
        "determinism: same-seed rerun {} ({} transcript bytes)",
        if rerun_ok {
            "byte-identical"
        } else {
            "MISMATCH"
        },
        first.transcript.len(),
    );
    failed |= !rerun_ok;

    // Checkpoint/resume gate.
    failed |= !resume_gate("Heap", &shape, None);

    // Querier-crash gate.
    let crashed = run_querier_crash(&shape);
    let frac = crashed.answered_fraction(&shape);
    let frac_ok = frac >= OK_FLOOR;
    // The fault must be live: some query whose deadline fell in the
    // down window was re-dispatched after the restart, i.e. sent well
    // past its trace schedule.
    let gap_s = shape.query_gap.as_nanos() as f64 / 1e9;
    let redispatched = crashed
        .records
        .iter()
        .filter(|r| r.sent_s > r.seq as f64 * gap_s + 0.001)
        .count();
    let live_ok = redispatched > 0;
    println!(
        "gate: querier crash — answered {:.2}% (floor {:.0}%) {}, {} re-dispatched after restart {}",
        frac * 100.0,
        OK_FLOOR * 100.0,
        if frac_ok { "ok" } else { "FAIL" },
        redispatched,
        if live_ok { "ok" } else { "FAIL (crash was a no-op)" },
    );
    failed |= !frac_ok || !live_ok;

    if storm {
        let shape = storm_cfg_for(seed, smoke);
        println!(
            "\ncrash storm: {:.0}% loss + {} ms (+{} ms jitter) delay from {:.2}s to {:.2}s,",
            shape.loss_rate * 100.0,
            shape.extra_delay.as_nanos() / 1_000_000,
            shape.delay_jitter.as_nanos() / 1_000_000,
            shape.storm_from.as_secs_f64(),
            shape.storm_until.as_secs_f64(),
        );
        println!(
            "kill at {:.2}s (mid-storm), v2 cadence {} ms, retransmit budget {} at {} ms base",
            shape.base.kill_at.as_secs_f64(),
            shape.base.cadence.as_nanos() / 1_000_000,
            shape.retransmit.max_retx,
            shape.retransmit.base_us / 1_000,
        );

        failed |= !resume_gate("Heap storm", &shape.base, Some(&shape));
    }

    println!("\ntakeaway: fuzzy-cut checkpoints make a killed replay resumable with a");
    println!("byte-identical virtual-time transcript, whatever is in flight at the cut, and");
    println!("on_restart re-dispatch bounds a querier power-cycle to the queries whose");
    println!("deadlines fell inside the outage.");
    if storm {
        println!("under a sustained storm the cadence keeps committing: each cut carries");
        println!("per-query in-flight state, so resume re-executes the live queries and still");
        println!("reproduces the uninterrupted run byte-for-byte.");
    }

    if failed {
        std::process::exit(1);
    }
}
