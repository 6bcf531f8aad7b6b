//! Fuzz-style checkpoint corruption coverage: a daemon resuming from an
//! on-disk checkpoint must survive *any* file damage with a typed
//! error. These tests take a small sealed checkpoint and exhaustively
//! (a) flip every bit of every byte and (b) truncate at every length,
//! asserting [`Checkpoint::from_json`] never panics and never loads a
//! *different* campaign state. The CRC-64 seals the canonical compact
//! re-rendering of the payload, so a flip confined to insignificant
//! formatting (pretty-print whitespace that parses to the identical
//! value) may legitimately still load — but then it must load to
//! exactly the pristine state; every semantically visible flip must
//! be rejected by the seal (or earlier, by the parser).
//!
//! The CRC is an integrity check, not a MAC — an adversary (or a buggy
//! tool) can re-seal a modified payload — so the final test re-seals
//! semantically-invalid payloads with a *correct* CRC and asserts the
//! field validators still refuse them.

use voltboot::campaign::{CampaignError, Checkpoint, RepRecord, RepStatus, ShardRange};
use voltboot::recover;
use voltboot::telemetry::{json, parse, Recorder};
use voltboot::ConfidenceMap;

/// A small sealed checkpoint: one completed rep of a three-rep
/// campaign, rendered and sealed by the production path. Kept minimal
/// (fresh recorder, one record) so the exhaustive flip sweep — eight
/// parses per byte — stays cheap; the real campaign-written files go
/// through the same `to_json` and are exercised by the shard-merge and
/// parallel-campaign suites.
fn sealed_checkpoint() -> String {
    let record = RepRecord {
        rep: 0,
        attempts: 2,
        status: RepStatus::Success,
        rail_held: true,
        images: 3,
        faults_fired: vec!["probe_slip".to_string()],
        steps_completed: 7,
        error: None,
        confidence: ConfidenceMap::default(),
    };
    Checkpoint {
        fault_seed: 11,
        reps: 3,
        shard: ShardRange::whole(3),
        next_rep: 1,
        records: vec![record],
        recorder: Recorder::new(),
    }
    .to_json()
}

#[test]
fn every_single_bit_flip_errs_or_loads_identically() {
    let text = sealed_checkpoint();
    let pristine = Checkpoint::from_json(&text).expect("pristine checkpoint must load").to_json();

    let bytes = text.as_bytes();
    let mut rejected = 0u64;
    let mut harmless = 0u64;
    let mut non_utf8 = 0u64;
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.to_vec();
            damaged[i] ^= 1 << bit;
            // A flip that breaks UTF-8 is caught one layer down, at the
            // file read — `resume` surfaces it as a typed Io error long
            // before the parser sees it.
            let Ok(s) = String::from_utf8(damaged) else {
                non_utf8 += 1;
                continue;
            };
            match Checkpoint::from_json(&s) {
                Err(_) => rejected += 1,
                // The seal covers the canonical payload, so a flip in
                // insignificant formatting may still load — but only
                // ever to the exact pristine state.
                Ok(loaded) => {
                    assert_eq!(
                        loaded.to_json(),
                        pristine,
                        "flip at byte {i} bit {bit} loaded a DIFFERENT checkpoint \
                         — a silently-wrong resume"
                    );
                    harmless += 1;
                }
            }
        }
    }
    assert_eq!(rejected + harmless + non_utf8, bytes.len() as u64 * 8);
    assert!(rejected > 0, "at least some flips must reach the parser and be rejected");
}

#[test]
fn every_truncation_errs_or_only_trims_whitespace() {
    let text = sealed_checkpoint();
    for len in 0..text.len() {
        if !text.is_char_boundary(len) {
            continue;
        }
        if text[len..].trim().is_empty() {
            // Only trailing whitespace removed: still the same
            // document; the parser is entitled to accept it.
            continue;
        }
        let prefix = &text[..len];
        assert!(
            Checkpoint::from_json(prefix).is_err(),
            "truncating the checkpoint to {len} bytes must yield a typed error"
        );
    }
}

/// Re-seals `payload` (a checkpoint object *without* its `crc64` key)
/// with a correct CRC-64 over its compact rendering, mimicking an
/// adversary with write access to the checkpoint file.
fn reseal(payload: &json::Value) -> String {
    let crc = recover::crc64(payload.render().as_bytes());
    let json::Value::Object(pairs) = payload else { panic!("checkpoint payload is an object") };
    let mut sealed = pairs.clone();
    sealed.push(("crc64".to_string(), json::Value::from(crc)));
    json::Value::Object(sealed).render()
}

/// Parses a sealed checkpoint back into its payload object (dropping
/// the `crc64` key) so tests can tamper with individual fields.
fn unsealed_payload(text: &str) -> json::Value {
    let json::Value::Object(pairs) = parse::parse(text).unwrap() else {
        panic!("checkpoint is an object")
    };
    json::Value::Object(pairs.into_iter().filter(|(k, _)| k != "crc64").collect())
}

fn with_field(payload: &json::Value, key: &str, val: json::Value) -> json::Value {
    let json::Value::Object(pairs) = payload else { panic!("object") };
    assert!(pairs.iter().any(|(k, _)| k == key), "payload has no key {key:?} to tamper with");
    json::Value::Object(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), if k == key { val.clone() } else { v.clone() }))
            .collect(),
    )
}

#[test]
fn resealed_out_of_range_fields_still_fail_typed() {
    let payload = unsealed_payload(&sealed_checkpoint());

    // Sanity: an untampered re-seal round-trips.
    assert!(Checkpoint::from_json(&reseal(&payload)).is_ok());

    // next_rep beyond the shard: valid CRC, invalid semantics.
    let bad_next = with_field(&payload, "next_rep", json::Value::from(99u64));
    assert!(matches!(
        Checkpoint::from_json(&reseal(&bad_next)),
        Err(CampaignError::Corrupt { .. })
    ));

    // Inverted shard range.
    let bad_shard = with_field(
        &with_field(&payload, "shard_start", json::Value::from(5u64)),
        "shard_end",
        json::Value::from(1u64),
    );
    assert!(matches!(
        Checkpoint::from_json(&reseal(&bad_shard)),
        Err(CampaignError::Corrupt { .. })
    ));

    // An unsupported format version.
    let bad_version = with_field(&payload, "voltboot_checkpoint", json::Value::from(77u64));
    assert!(matches!(
        Checkpoint::from_json(&reseal(&bad_version)),
        Err(CampaignError::Corrupt { .. })
    ));

    // A record field overflowing its in-memory width (attempts is u32):
    // 2^32 + 5 used to silently wrap to 5 under an `as u32` cast.
    let json::Value::Object(pairs) = &payload else { panic!("object") };
    let tampered: Vec<(String, json::Value)> = pairs
        .iter()
        .map(|(k, v)| {
            if k != "records" {
                return (k.clone(), v.clone());
            }
            let json::Value::Array(records) = v else { panic!("records is an array") };
            let wrapped: Vec<json::Value> = records
                .iter()
                .map(|r| with_field(r, "attempts", json::Value::from(u64::from(u32::MAX) + 6)))
                .collect();
            (k.clone(), json::Value::Array(wrapped))
        })
        .collect();
    assert!(matches!(
        Checkpoint::from_json(&reseal(&json::Value::Object(tampered))),
        Err(CampaignError::Corrupt { detail }) if detail.contains("out of range")
    ));
}

/// The daemon's `MERGE` verb hands wire paths to [`Checkpoint::load`],
/// so a path that is not a regular file must fail typed and promptly.
/// Each load runs on its own thread: one that blocks (a FIFO with no
/// writer) or reads forever (`/dev/zero`) fails the test instead of
/// hanging it.
#[test]
fn non_regular_files_fail_typed_without_blocking() {
    let dir =
        std::env::temp_dir().join(format!("voltboot_test_non_regular_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut paths = vec![dir.clone()];
    if cfg!(unix) {
        let fifo = dir.join("fifo");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status().expect("run mkfifo");
        assert!(made.success(), "mkfifo {} failed", fifo.display());
        paths.push(fifo);
        paths.push(std::path::PathBuf::from("/dev/zero"));
    }
    for path in paths {
        let (tx, rx) = std::sync::mpsc::channel();
        let loading = path.clone();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(Checkpoint::load(&loading).map(|_| ()));
        });
        let loaded = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("loading {} did not return within 5 s", path.display()));
        handle.join().expect("load thread");
        match loaded {
            Err(CampaignError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{}: {e}", path.display())
            }
            other => panic!("{}: {other:?}", path.display()),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
