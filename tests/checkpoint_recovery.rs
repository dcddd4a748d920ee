//! Crash-recovery acceptance suite for the checkpoint journal.
//!
//! The contract under test: a sweep killed at *any* point — between
//! records or mid-frame — resumes from its journal and returns output
//! bitwise-identical to an uninterrupted run, at any thread count; a
//! journal truncated at *any* byte offset either replays a clean set of
//! fully-valid records or reports a typed corruption error, never
//! panicking and never replaying a torn record; and a configuration that
//! overruns its watchdog deadline becomes a recorded failure without
//! stalling the rest of the sweep.

use enprop::apps::checkpoint::{
    replay, CheckpointError, CrashPlan, JournalRecord, SweepCheckpoint, SweepManifest,
};
use enprop::apps::{
    GpuMatMulApp, MeasurementRunner, RetryPolicy, RobustSweep, SweepExecutor, SweepOutcome,
};
use enprop::gpusim::GpuArch;
use enprop::power::{FaultPlan, MeasureError};
use enprop::units::Watts;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A unique scratch directory per call; pre-cleaned, caller removes it.
fn temp_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("enprop-ckpt-it-{}-{label}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copies a flat journal directory so one crashed journal can seed
/// several independent resume attempts.
fn copy_journal(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create journal copy dir");
    for entry in std::fs::read_dir(src).expect("read journal dir") {
        let entry = entry.expect("journal dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy journal file");
    }
}

/// The segment files of a journal, sorted by name (manifest excluded).
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read journal dir")
        .map(|e| e.expect("journal dir entry").path())
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("seg-"))
        })
        .collect();
    files.sort();
    files
}

fn truncate_file(path: &Path, len: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).expect("open for truncate");
    f.set_len(len).expect("truncate");
}

// ---------------------------------------------------------------------
// Synthetic sweeps: a trivial measurement function makes the exhaustive
// kill-point grid affordable — the mechanics under test are entirely in
// the journal and the executor, not the measurement.
// ---------------------------------------------------------------------

const SYNTH_SEED: u64 = 9;
const SYNTH_TOTAL: usize = 24;

fn synth_items() -> Vec<f64> {
    (0..SYNTH_TOTAL).map(|i| i as f64).collect()
}

fn synth_manifest(policy: &RetryPolicy) -> SweepManifest {
    SweepManifest::new(SYNTH_SEED, SYNTH_TOTAL, policy.max_attempts, "synthetic-crash-grid")
}

fn synth_runner() -> MeasurementRunner {
    MeasurementRunner::new(Watts(5.0), 0)
}

fn synth_measure(
    _runner: &mut MeasurementRunner,
    item: &f64,
) -> Result<f64, MeasureError> {
    Ok(item * 3.0 + 1.0)
}

/// The uninterrupted reference sweep for the synthetic workload.
fn synth_clean(policy: RetryPolicy) -> RobustSweep<f64, f64> {
    let items = synth_items();
    SweepExecutor::new(SYNTH_SEED)
        .with_threads(2)
        .run_measured_with_retry(&items, policy, None, synth_runner, synth_measure)
        .expect("an unjournaled sweep cannot fail")
        .sweep
}

/// Every kill point of the synthetic sweep, with clean and torn final
/// frames, resumed at 1, 2, and 8 threads — each resume must reproduce
/// the uninterrupted sweep bitwise and account for every configuration
/// as either replayed or recomputed.
#[test]
fn every_kill_point_resumes_bitwise_identical_at_all_thread_counts() {
    let items = synth_items();
    let policy = RetryPolicy::no_retry();
    let manifest = synth_manifest(&policy);
    let clean = synth_clean(policy);

    for kill in 0..SYNTH_TOTAL {
        // Cycle the tear through a clean kill (0), a mid-header tear (5),
        // and a mid-body tear (9) instead of a full cross product.
        let torn = [0usize, 5, 9][kill % 3];
        let crash_dir = temp_dir("grid");
        let mut checkpoint =
            SweepCheckpoint::fresh(&crash_dir, manifest.clone()).expect("fresh journal");
        // Tiny segments so kills land before, at, and after seal points.
        checkpoint.set_segment_capacity(8);
        checkpoint.arm_crash(CrashPlan::kill_after(kill).with_torn_bytes(torn));

        let crashed = SweepExecutor::new(SYNTH_SEED)
            .with_threads(2)
            .run_measured_with_retry(
                &items,
                policy,
                Some(checkpoint),
                synth_runner,
                synth_measure,
            )
            .expect("crash-armed sweep");
        assert!(crashed.crashed, "kill {kill}: the armed crash never fired");
        // The in-process results are unharmed — only durability is lost.
        assert!(crashed.sweep == clean, "kill {kill}: crashed run diverged");

        for threads in [1usize, 2, 8] {
            let resume_dir = temp_dir("grid-resume");
            copy_journal(&crash_dir, &resume_dir);
            let checkpoint =
                SweepCheckpoint::resume(&resume_dir, &manifest).expect("resume journal");
            assert_eq!(
                checkpoint.replayed().len(),
                kill,
                "kill {kill}: durable record count"
            );
            let resumed = SweepExecutor::new(SYNTH_SEED)
                .with_threads(threads)
                .run_measured_with_retry(
                    &items,
                    policy,
                    Some(checkpoint),
                    synth_runner,
                    synth_measure,
                )
                .expect("resumed sweep");
            assert!(
                resumed.sweep == clean,
                "kill {kill} torn {torn} threads {threads}: resumed sweep diverged"
            );
            assert_eq!(resumed.replayed, kill);
            assert_eq!(resumed.executed, SYNTH_TOTAL - kill);
            assert_eq!(resumed.torn_tail_bytes, torn as u64, "kill {kill}");
            assert!(!resumed.crashed);
            let _ = std::fs::remove_dir_all(&resume_dir);
        }
        let _ = std::fs::remove_dir_all(&crash_dir);
    }
}

/// Resuming a journal that already covers the whole sweep replays
/// everything and measures nothing.
#[test]
fn completed_journal_resumes_with_zero_recomputation() {
    let items = synth_items();
    let policy = RetryPolicy::no_retry();
    let manifest = synth_manifest(&policy);
    let dir = temp_dir("complete");

    let checkpoint = SweepCheckpoint::fresh(&dir, manifest.clone()).expect("fresh journal");
    let exec = SweepExecutor::new(SYNTH_SEED).with_threads(2);
    let first = exec
        .run_measured_with_retry(&items, policy, Some(checkpoint), synth_runner, synth_measure)
        .expect("journaled sweep");
    assert_eq!(first.executed, SYNTH_TOTAL);

    let checkpoint = SweepCheckpoint::resume(&dir, &manifest).expect("resume journal");
    let second = exec
        .run_measured_with_retry(&items, policy, Some(checkpoint), synth_runner, synth_measure)
        .expect("re-resumed sweep");
    assert_eq!(second.replayed, SYNTH_TOTAL);
    assert_eq!(second.executed, 0);
    assert!(second.sweep == first.sweep);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal from a different sweep identity is refused with a typed
/// mismatch, field by field.
#[test]
fn resume_refuses_a_journal_from_a_different_sweep() {
    let items = synth_items();
    let policy = RetryPolicy::no_retry();
    let manifest = synth_manifest(&policy);
    let dir = temp_dir("mismatch");

    let checkpoint = SweepCheckpoint::fresh(&dir, manifest.clone()).expect("fresh journal");
    let journaled = SweepExecutor::new(SYNTH_SEED)
        .with_threads(1)
        .run_measured_with_retry(&items, policy, Some(checkpoint), synth_runner, synth_measure)
        .expect("journaled sweep");
    assert_eq!(journaled.executed, SYNTH_TOTAL);

    let mut foreign = manifest.clone();
    foreign.sweep_seed = SYNTH_SEED + 1;
    match SweepCheckpoint::<f64>::resume(&dir, &foreign) {
        Err(CheckpointError::ManifestMismatch { field: "sweep_seed", .. }) => {}
        other => panic!("expected a sweep_seed mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Truncation: the journal's torn-tail taxonomy, exhaustively.
// ---------------------------------------------------------------------

/// Authors a journal of `total` f64 records directly (no sweep), leaving
/// the tail `.open` as a crash would.
fn author_journal(dir: &Path, total: usize, capacity: usize) -> SweepManifest {
    let manifest = SweepManifest::new(3, total, 1, "truncation-harness");
    let mut checkpoint =
        SweepCheckpoint::<f64>::fresh(dir, manifest.clone()).expect("fresh journal");
    checkpoint.set_segment_capacity(capacity);
    let writer = checkpoint.writer_mut();
    for index in 0..total {
        let record = JournalRecord {
            index,
            outcome: SweepOutcome::Ok { point: index as f64 * 1.5 - 2.0, attempts: 1 },
        };
        assert!(writer.append(&record).expect("append"));
    }
    manifest
}

/// The truncation property shared by the exhaustive loop and the
/// proptest: replay of a truncated journal must not panic, must never
/// surface a record that isn't bitwise one of the originals, and — when
/// the cut hits the unsealed tail — must replay exactly the records
/// fully contained below the cut.
fn assert_truncation_is_safe(
    tdir: &Path,
    full: &[(usize, SweepOutcome<f64>)],
    cut_in_tail: Option<usize>,
) {
    match replay::<f64>(tdir) {
        Ok(r) => {
            for pair in &r.outcomes {
                assert!(
                    full.contains(pair),
                    "replayed a record that was never written: index {}",
                    pair.0
                );
            }
            assert!(r.outcomes.len() <= full.len());
            if let Some(expected) = cut_in_tail {
                assert_eq!(
                    r.outcomes.as_slice(),
                    &full[..expected],
                    "tail truncation must replay exactly the clean prefix"
                );
            }
        }
        // A cut inside a sealed segment is strict-scanned corruption;
        // what matters is that it is *typed*, not a panic, and that no
        // records were handed out.
        Err(CheckpointError::CorruptRecord { .. }) => {}
        Err(other) => panic!("unexpected replay error: {other}"),
    }
}

/// Counts the frames of `bytes` fully contained in the first `cut` bytes.
fn frames_below(bytes: &[u8], cut: usize) -> usize {
    let mut offset = 0usize;
    let mut frames = 0usize;
    while offset + 8 <= cut {
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        if offset + 8 + len > cut {
            break;
        }
        offset += 8 + len;
        frames += 1;
    }
    frames
}

/// Truncate a three-segment journal (two sealed, one open tail) at every
/// byte offset of every segment file: no panic anywhere, torn records
/// never replayed, tail cuts replay exactly the clean prefix.
#[test]
fn truncation_at_every_byte_offset_is_safe() {
    let dir = temp_dir("trunc-exhaustive");
    author_journal(&dir, 16, 6); // seg0: 6, seg1: 6, tail: 4 records
    let full = replay::<f64>(&dir).expect("pristine replay").outcomes;
    assert_eq!(full.len(), 16);

    let files = segment_files(&dir);
    assert_eq!(files.len(), 3, "expected two sealed segments and one tail");
    let sealed_records = 12; // records in seg0 + seg1

    for file in &files {
        let bytes = std::fs::read(file).expect("read segment");
        let is_tail = file.extension().is_some_and(|e| e == "open");
        for cut in 0..bytes.len() {
            let tdir = temp_dir("trunc-cut");
            copy_journal(&dir, &tdir);
            truncate_file(&tdir.join(file.file_name().expect("file name")), cut as u64);
            let cut_in_tail =
                is_tail.then(|| sealed_records + frames_below(&bytes, cut));
            assert_truncation_is_safe(&tdir, &full, cut_in_tail);
            let _ = std::fs::remove_dir_all(&tdir);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same property over randomized journal shapes: record count,
    /// segment capacity, victim file, and cut offset all drawn freely.
    #[test]
    fn truncated_journals_never_panic_or_replay_torn_records(
        total in 1usize..28,
        capacity in 1usize..9,
        file_pick in 0usize..64,
        cut_pick in 0usize..8192,
    ) {
        let dir = temp_dir("trunc-prop");
        author_journal(&dir, total, capacity);
        let full = replay::<f64>(&dir).expect("pristine replay").outcomes;
        prop_assert_eq!(full.len(), total);

        let files = segment_files(&dir);
        let file = &files[file_pick % files.len()];
        let bytes = std::fs::read(file).expect("read segment");
        if !bytes.is_empty() {
            let cut = cut_pick % bytes.len();
            let is_tail = file.extension().is_some_and(|e| e == "open");
            let tdir = temp_dir("trunc-prop-cut");
            copy_journal(&dir, &tdir);
            truncate_file(&tdir.join(file.file_name().expect("file name")), cut as u64);
            let cut_in_tail = is_tail.then(|| {
                // Records in sealed segments, plus the tail frames that
                // survive the cut.
                let sealed = total - frames_below(&bytes, bytes.len());
                sealed + frames_below(&bytes, cut)
            });
            assert_truncation_is_safe(&tdir, &full, cut_in_tail);
            let _ = std::fs::remove_dir_all(&tdir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A flipped byte inside a sealed segment is detected by the CRC and
/// reported as typed corruption, never replayed.
#[test]
fn bit_flip_in_a_sealed_segment_is_typed_corruption() {
    let dir = temp_dir("bitflip");
    author_journal(&dir, 12, 4);
    let files = segment_files(&dir);
    let victim = &files[0];
    let mut bytes = std::fs::read(victim).expect("read segment");
    // Flip a byte well inside the first record's JSON body.
    bytes[12] ^= 0x40;
    std::fs::write(victim, &bytes).expect("write corrupted segment");
    match replay::<f64>(&dir) {
        Err(CheckpointError::CorruptRecord { .. }) => {}
        other => panic!("expected CorruptRecord, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The real workload: the measured GPU sweep with fault injection.
// ---------------------------------------------------------------------

/// A seeded crash in the real fault-injected measured sweep resumes
/// bitwise-identically at 1, 2, and 8 threads.
#[test]
fn fault_sweep_crash_resumes_identically_at_all_thread_counts() {
    let app = GpuMatMulApp::new(GpuArch::k40c(), 8);
    let n = 2048usize; // smaller panel than Fig. 7, same machinery
    let total = app.configs(n).len();
    assert!(total >= 40, "workload too small to be interesting");
    let policy = RetryPolicy::default();
    let plan = FaultPlan::transient(0.05);
    let exec2 = SweepExecutor::new(42).with_threads(2);

    let clean = app.sweep_measured_robust(n, &exec2, policy, plan, None).unwrap().sweep;

    let crash_dir = temp_dir("gpu-crash");
    let manifest = app.checkpoint_manifest(n, &exec2, &policy, &plan);
    let mut checkpoint =
        SweepCheckpoint::fresh(&crash_dir, manifest.clone()).expect("fresh journal");
    checkpoint.arm_crash(CrashPlan::from_seed(1234, total));
    let crashed = app
        .sweep_measured_robust(n, &exec2, policy, plan, Some(checkpoint))
        .expect("crash-armed sweep");
    assert!(crashed.crashed, "seeded crash plan never fired");

    for threads in [1usize, 2, 8] {
        let dir = temp_dir("gpu-resume");
        copy_journal(&crash_dir, &dir);
        let exec = SweepExecutor::new(42).with_threads(threads);
        let checkpoint = SweepCheckpoint::resume(&dir, &manifest).expect("resume journal");
        let resumed = app
            .sweep_measured_robust(n, &exec, policy, plan, Some(checkpoint))
            .expect("resumed sweep");
        assert!(
            resumed.sweep == clean,
            "threads {threads}: resumed sweep diverged from uninterrupted run"
        );
        assert_eq!(resumed.replayed + resumed.executed, total);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&crash_dir);
}

// ---------------------------------------------------------------------
// Watchdog deadlines.
// ---------------------------------------------------------------------

/// Configurations that overrun the per-attempt deadline become recorded
/// `DeadlineExceeded` failures after exhausting their retries; every
/// other configuration completes untouched.
#[test]
fn deadline_exceeded_configs_fail_without_stalling_the_sweep() {
    // Items are sleep durations in milliseconds; two pathological ones.
    let items: Vec<u64> = vec![0, 0, 120, 0, 0, 120, 0, 0];
    let slow: Vec<usize> = vec![2, 5];
    let policy =
        RetryPolicy::attempts(2).with_attempt_deadline(Duration::from_millis(40));

    let sweep = SweepExecutor::new(7)
        .with_threads(2)
        .run_measured_with_retry(&items, policy, None, synth_runner, |_runner, &ms: &u64| {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(ms as f64)
        })
        .expect("an unjournaled sweep cannot fail")
        .sweep;

    assert_eq!(sweep.points.len(), items.len() - slow.len());
    assert_eq!(sweep.failures.len(), slow.len());
    for failure in &sweep.failures {
        assert!(slow.contains(&failure.index), "unexpected casualty #{}", failure.index);
        assert_eq!(failure.attempts, 2, "deadline failures are retried before recording");
        assert!(
            matches!(failure.error, MeasureError::DeadlineExceeded { .. }),
            "#{}: {}",
            failure.index,
            failure.error
        );
    }
    // The survivors are exactly the fast configurations, values intact.
    for point in &sweep.points {
        assert_eq!(*point, 0.0);
    }
}
