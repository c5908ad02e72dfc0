//! Property tests: any well-formed `Checkpoint` survives a text
//! round-trip exactly — `from_text(to_text(cp)) == cp` — for both the
//! v1 format and the v2 fuzzy-cut format with arbitrary
//! in-flight entries, and the serializer is a fixed point (re-encoding
//! the parse changes nothing).

use ldp_guard::{BudgetSnapshot, Checkpoint, InflightEntry, InflightStatus};
use ldp_rng::prop::{self, check};
use ldp_rng::StdRng;

/// Counter names: non-empty, whitespace-free (the serializer rejects
/// anything else), drawn from the tokens real callers use.
fn arb_counter_name(r: &mut StdRng) -> String {
    prop::string(r, "a-z", 1..=1) + &prop::string(r, "a-z0-9_.:-", 0..=15)
}

/// Unique-named counter list (duplicate names are a serialize error
/// and a parse error, so they can never round-trip).
fn arb_counters(r: &mut StdRng) -> Vec<(String, u64)> {
    let mut v = prop::vec(r, 0..=7, |r| (arb_counter_name(r), r.gen()));
    let mut seen = std::collections::HashSet::new();
    v.retain(|(n, _)| seen.insert(n.clone()));
    v
}

/// Record payloads: any single line (no LF/CR — the serializer refuses
/// to emit them), including leading/trailing whitespace, `#`, and
/// strings that look like other keywords (`counter x 1`, `inflight 3`).
fn arb_record(r: &mut StdRng) -> String {
    prop::one_of(
        r,
        &[
            |r| prop::string(r, &format!("\t{}", prop::PRINTABLE), 0..=40),
            |_| String::new(),
            |_| "  padded  ".to_string(),
            |_| "# not a comment once prefixed".to_string(),
            |_| "counter smuggled 1".to_string(),
            |_| "inflight 3 deadline 4".to_string(),
        ],
    )
}

fn arb_status(r: &mut StdRng) -> InflightStatus {
    prop::one_of(
        r,
        &[
            |_| InflightStatus::InFlight,
            |_| InflightStatus::Parked,
            |_| InflightStatus::Retrying,
        ],
    )
}

fn arb_budget(r: &mut StdRng) -> Option<BudgetSnapshot> {
    prop::option(r, |r| BudgetSnapshot {
        used: r.gen(),
        prev_us: r.gen(),
        rng_state: r.gen(),
    })
}

fn arb_inflight_entry(r: &mut StdRng) -> InflightEntry {
    InflightEntry {
        seq: r.gen(),
        deadline_ns: r.gen(),
        sends: r.gen(),
        retx: r.gen(),
        status: arb_status(r),
        budget: arb_budget(r),
    }
}

/// A v2 fuzzy-cut checkpoint: counters, records, and in-flight entries
/// all populated with arbitrary (but serializable) values.
fn arb_v2_checkpoint(r: &mut StdRng) -> Checkpoint {
    Checkpoint {
        version: 2,
        epoch: r.gen(),
        taken_ns: r.gen(),
        cursor: r.gen(),
        counters: arb_counters(r),
        records: prop::vec(r, 0..=15, arb_record),
        inflight: prop::vec(r, 0..=15, arb_inflight_entry),
    }
}

/// A v1 checkpoint: same shape, no in-flight section (v1
/// cannot represent one — `to_text` refuses).
fn arb_v1_checkpoint(r: &mut StdRng) -> Checkpoint {
    let mut cp = arb_v2_checkpoint(r);
    cp.version = 1;
    cp.inflight.clear();
    cp
}

#[test]
fn v2_text_round_trip_is_exact() {
    check(
        "v2_text_round_trip_is_exact",
        256,
        arb_v2_checkpoint,
        |cp| {
            let text = cp.to_text().expect("well-formed v2 serializes");
            let back = Checkpoint::from_text(&text).expect("own output parses");
            assert_eq!(&cp, &back);
            // Serialization is a fixed point: re-encoding changes nothing.
            assert_eq!(text, back.to_text().expect("re-serializes"));
        },
    );
}

#[test]
fn v1_text_round_trip_is_exact() {
    check(
        "v1_text_round_trip_is_exact",
        256,
        arb_v1_checkpoint,
        |cp| {
            let text = cp.to_text().expect("well-formed v1 serializes");
            let back = Checkpoint::from_text(&text).expect("own output parses");
            assert_eq!(&cp, &back);
            assert_eq!(text, back.to_text().expect("re-serializes"));
        },
    );
}

/// Upgrade read: a v2-aware parser reading any v1 document yields
/// `version == 1` and an empty in-flight section — old checkpoints
/// stay readable and are never misread as carrying live state.
#[test]
fn v1_documents_upgrade_read_with_empty_inflight() {
    check(
        "v1_documents_upgrade_read_with_empty_inflight",
        256,
        arb_v1_checkpoint,
        |cp| {
            let text = cp.to_text().expect("well-formed v1 serializes");
            let back = Checkpoint::from_text(&text).expect("v1 parses under the v2 parser");
            assert_eq!(back.version, 1);
            assert!(back.inflight.is_empty());
            assert_eq!(back.epoch, cp.epoch);
            assert_eq!(back.cursor, cp.cursor);
            assert_eq!(&back.records, &cp.records);
        },
    );
}

/// An in-flight line on its own round-trips through the line grammar
/// exactly.
#[test]
fn inflight_line_round_trip_is_exact() {
    check(
        "inflight_line_round_trip_is_exact",
        256,
        arb_inflight_entry,
        |entry| {
            let line = entry.to_line();
            let back = InflightEntry::from_line(&line, 1).expect("own output parses");
            assert_eq!(entry, back);
            assert_eq!(line, back.to_line());
        },
    );
}

/// The parser returns `Err`, never panics, on arbitrary input.
#[test]
fn parser_never_panics() {
    check(
        "parser_never_panics",
        256,
        |r| prop::string(r, prop::PRINTABLE, 0..=64),
        |text| {
            let _ = Checkpoint::from_text(&text);
        },
    );
}
