//! The crash-storm gates for fuzzy-cut checkpoints.
//!
//! A sustained loss-plus-delay storm keeps the replay client from ever
//! draining: at every completion a later query is already on the wire.
//! The fuzzy cadence keeps committing regardless, carrying per-query
//! in-flight state, and a resume from a mid-storm fuzzy cut replays a
//! transcript and telemetry stream byte-identical to an uninterrupted
//! same-seed run.

use ldp_chaos::recovery::{
    run_storm_baseline, run_storm_killed, run_storm_resumed, spliced_q_events_fuzzy, StormConfig,
};
use ldp_telemetry as tel;

/// The storm runs here enable and drain process-wide telemetry (the
/// enable flag and the flushed rings), so they run one at a time.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn v2_fuzzy_cuts_commit_through_the_storm_with_live_state() {
    let _s = serial();
    let cfg = StormConfig::smoke(47);
    let killed = run_storm_killed(&cfg);
    let (from, to) = cfg.storm_window();
    let in_storm = killed.stamps_in(from, to);
    assert!(
        !in_storm.is_empty(),
        "cuts keep committing through the storm"
    );
    assert!(
        in_storm.iter().any(|s| s.inflight > 0),
        "storm cuts carry live queries: {in_storm:?}"
    );
    // Grid anchoring: every commit lands on a cadence multiple.
    let cad = cfg.base.cadence.as_nanos();
    assert!(killed.stamps.iter().all(|s| s.taken_ns % cad == 0));
    let cp = killed.checkpoint.expect("a committed fuzzy cut");
    assert_eq!(cp.version, 2);
    assert!(
        !cp.inflight.is_empty(),
        "the last cut before the kill is mid-storm"
    );
    // The carried state is exactly round-trippable.
    let text = cp.to_text().expect("serializes");
    assert_eq!(ldp_guard::Checkpoint::from_text(&text).expect("parses"), cp);
}

#[test]
fn storm_kill_resume_is_byte_identical() {
    let _s = serial();
    let cfg = StormConfig::smoke(53);
    let base = run_storm_baseline(&cfg);
    assert_eq!(
        base.records.len(),
        cfg.base.queries,
        "retransmission outlasts the storm"
    );
    let killed = run_storm_killed(&cfg);
    let cp = killed
        .checkpoint
        .clone()
        .expect("a fuzzy cut before the kill");
    assert_eq!(cp.version, 2);
    assert!(
        !cp.inflight.is_empty(),
        "kill landed mid-storm with live queries"
    );
    let resumed = run_storm_resumed(&cfg, &cp);
    assert_eq!(
        resumed.transcript.lines().skip(2).collect::<Vec<_>>(),
        base.transcript.lines().skip(2).collect::<Vec<_>>(),
        "transcript bodies diverged"
    );
    let spliced = spliced_q_events_fuzzy(&killed, &resumed);
    let mut base_events = base.q_events;
    tel::canonical_order(&mut base_events);
    assert_eq!(
        tel::diff_logs(&spliced, &base_events),
        None,
        "telemetry diverged"
    );
    assert_eq!(tel::dump_binary(&spliced), tel::dump_binary(&base_events));
}
