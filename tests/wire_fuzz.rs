//! Wire mutation test: malformed frames and checkpoints must produce
//! errors, never panics.
//!
//! Real frames of each outcome shape (a single piconet, and a scatternet
//! with engine telemetry) are mutated by a fixed-seed `DetRng`: character
//! flips that keep the text UTF-8, truncations, and splices with a foreign
//! frame; and, at the byte level, arbitrary byte flips into the length
//! prefixes and the payloads that mostly leave the stream invalid UTF-8.
//! Every mutation goes through `FrameReader` and `frame_from_json`, and
//! mutated checkpoint files are replayed by a `ShardedGridRunner` whose
//! worker binary does not exist, so nothing is spawned and a cell the
//! replay rejects surfaces as an `Err`.

use btgs::core::{BeSourceMix, GridCell, PollerKind, ScenarioGrid, Topology};
use btgs::des::{DetRng, SimDuration, SimTime};
use btgs::grid::wire::{
    frame_from_json, frame_to_json, grid_digest, write_frame, FrameRead, FrameReader,
};
use btgs::grid::{GridPartitioner, OnlineAggregator, ShardedGridRunner};
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutations per base frame fed to the decoders.
const FRAME_MUTATIONS: usize = 300;
/// Mutated checkpoint files replayed per grid.
const CHECKPOINT_MUTATIONS: usize = 100;
/// Byte-flipped framed streams fed to `FrameReader` per stream.
const BYTE_MUTATIONS: usize = 300;
/// Byte-flipped checkpoint files replayed per grid.
const BYTE_CHECKPOINT_MUTATIONS: usize = 100;

fn piconet_grid() -> ScenarioGrid {
    ScenarioGrid {
        pollers: vec![PollerKind::PfpGs],
        piconets: vec![1],
        seeds: vec![1, 2],
        topologies: vec![Topology::Chain],
        delay_requirements: vec![SimDuration::from_millis(40)],
        chain_deadlines: vec![None],
        bidirectional: false,
        bridge_cycle: SimDuration::from_millis(20),
        horizon: SimTime::from_secs(1),
        warmup: SimDuration::from_millis(200),
        include_be: true,
        be_load_scale: vec![1.0],
        be_source_mix: BeSourceMix::Cbr,
        telemetry: false,
    }
}

/// An admitted bidirectional 2-piconet chain, observed.
fn scatternet_grid() -> ScenarioGrid {
    ScenarioGrid {
        piconets: vec![2],
        bidirectional: true,
        bridge_cycle: SimDuration::from_millis(10),
        delay_requirements: vec![SimDuration::from_millis(46)],
        chain_deadlines: vec![Some(SimDuration::from_millis(400))],
        telemetry: true,
        ..piconet_grid()
    }
}

/// Every cell's frame, in grid order.
fn frames(grid: &ScenarioGrid) -> Vec<String> {
    let digest = grid_digest(grid);
    grid.cells()
        .iter()
        .enumerate()
        .map(|(i, cell)| frame_to_json(digest, i, cell, &cell.simulate()))
        .collect()
}

/// A char boundary of `s` picked uniformly among its chars (or the end).
fn boundary(rng: &mut DetRng, s: &str) -> usize {
    let k = rng.below(s.chars().count() as u64 + 1) as usize;
    s.char_indices().nth(k).map_or(s.len(), |(i, _)| i)
}

/// A replacement character: mostly JSON-significant ASCII, sometimes a
/// control byte or a multi-byte character.
fn random_char(rng: &mut DetRng) -> char {
    const POOL: &[char] = &[
        '"', '\\', '{', '}', '[', ']', ':', ',', '-', '.', 'e', 'u', 'n', '0', '1', '9', ' ', '\n',
        '\u{1}', 'é', '€', '😀',
    ];
    if rng.chance(0.5) {
        POOL[rng.below(POOL.len() as u64) as usize]
    } else {
        char::from(rng.below(0x80) as u8)
    }
}

/// One mutation of `base`: 1–4 character flips, 1–3 digit swaps, a
/// truncation, or a splice of `base`'s head onto `foreign`'s tail. The
/// result is always UTF-8.
fn mutate(rng: &mut DetRng, base: &str, foreign: &str) -> String {
    match rng.below(4) {
        0 => {
            let mut s = base.to_owned();
            for _ in 0..rng.range_inclusive(1, 4) {
                let at = boundary(rng, &s);
                let Some(old) = s[at..].chars().next() else {
                    continue;
                };
                s.replace_range(
                    at..at + old.len_utf8(),
                    random_char(rng).encode_utf8(&mut [0; 4]),
                );
            }
            s
        }
        1 => {
            // A digit swapped for another keeps the frame parseable and
            // reaches the decoders' and sinks' semantic checks.
            let digits: Vec<usize> = base
                .bytes()
                .enumerate()
                .filter_map(|(i, b)| b.is_ascii_digit().then_some(i))
                .collect();
            let mut s = base.to_owned();
            for _ in 0..rng.range_inclusive(1, 3) {
                let at = digits[rng.below(digits.len() as u64) as usize];
                let digit = char::from(b'0' + rng.below(10) as u8);
                s.replace_range(at..=at, digit.encode_utf8(&mut [0; 4]));
            }
            s
        }
        2 => base[..boundary(rng, base)].to_owned(),
        _ => format!(
            "{}{}",
            &base[..boundary(rng, base)],
            &foreign[boundary(rng, foreign)..]
        ),
    }
}

/// One byte-level mutation of a framed stream: 1–4 bytes overwritten
/// with arbitrary values (half of them ≥ 0x80, so the result is mostly
/// not UTF-8), each aimed at a frame's length prefix line or anywhere in
/// the stream with equal odds.
fn flip_bytes(rng: &mut DetRng, stream: &[u8]) -> Vec<u8> {
    // Each frame's prefix line: from the frame start up to and including
    // its newline.
    let mut prefixes = Vec::new();
    let mut at = 0;
    while at < stream.len() {
        let newline = at + stream[at..].iter().position(|&b| b == b'\n').unwrap();
        let len: usize = std::str::from_utf8(&stream[at..newline])
            .unwrap()
            .parse()
            .unwrap();
        prefixes.push(at..=newline);
        at = newline + 1 + len + 1;
    }
    let mut s = stream.to_vec();
    for _ in 0..rng.range_inclusive(1, 4) {
        let pos = if rng.chance(0.5) {
            let prefix = &prefixes[rng.below(prefixes.len() as u64) as usize];
            prefix.start() + rng.below((prefix.end() - prefix.start() + 1) as u64) as usize
        } else {
            rng.below(s.len() as u64) as usize
        };
        s[pos] = if rng.chance(0.5) {
            0x80 | rng.below(0x80) as u8
        } else {
            rng.below(0x80) as u8
        };
    }
    s
}

/// Runs `f` on every mutation, collecting the ones that panicked.
fn panics_of<M: AsRef<[u8]>>(mutations: &[M], mut f: impl FnMut(&M)) -> Vec<String> {
    mutations
        .iter()
        .enumerate()
        .filter_map(|(k, m)| {
            catch_unwind(AssertUnwindSafe(|| f(m))).err().map(|_| {
                let shown = String::from_utf8_lossy(m.as_ref());
                format!(
                    "mutation {k}: {}",
                    shown.chars().take(160).collect::<String>()
                )
            })
        })
        .collect()
}

/// Reads every frame off `bytes` and decodes each payload, ignoring the
/// outcomes; only a panic is a failure.
fn read_all(bytes: &[u8]) {
    let mut reader = FrameReader::new(Cursor::new(bytes));
    while let Ok(FrameRead::Frame(payload)) = reader.next_frame() {
        let _ = frame_from_json(&payload);
    }
}

fn framed(payloads: &[String]) -> String {
    let mut buf = Vec::new();
    for p in payloads {
        write_frame(&mut buf, p).unwrap();
    }
    String::from_utf8(buf).unwrap()
}

#[test]
fn mutated_frames_decode_to_errors_not_panics() {
    let piconet = frames(&piconet_grid()).swap_remove(0);
    let scatternet = frames(&scatternet_grid()).swap_remove(0);
    assert!(
        scatternet.contains("\"telemetry\":{"),
        "telemetry rides the frame"
    );
    for frame in [&piconet, &scatternet] {
        frame_from_json(frame).expect("the clean frame decodes");
    }

    let mut rng = DetRng::seed_from_u64(0x5EED_F0A2);
    let mut failures = Vec::new();
    for (base, foreign) in [(&piconet, &scatternet), (&scatternet, &piconet)] {
        let stream = framed(&[base.clone(), foreign.clone()]);
        let mutations: Vec<String> = (0..FRAME_MUTATIONS)
            .map(|k| {
                // Alternate payload mutations with mutations of the framed
                // stream, length prefixes included.
                if k % 2 == 0 {
                    mutate(&mut rng, base, foreign)
                } else {
                    mutate(&mut rng, &stream, foreign)
                }
            })
            .collect();
        failures.extend(panics_of(&mutations, |m| {
            let _ = frame_from_json(m);
            read_all(m.as_bytes());
        }));
    }
    assert!(
        failures.is_empty(),
        "decoder panics:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corrupted_checkpoints_replay_to_errors_not_panics() {
    let dir = std::env::temp_dir().join(format!("btgs-wire-fuzz-{}", std::process::id()));
    let runner = ShardedGridRunner::new(&dir.join("no-such-worker"), &dir, 1).with_retries(0);
    let mut rng = DetRng::seed_from_u64(0xC4EC_F0A2);
    let mut failures = Vec::new();
    for grid in [piconet_grid(), scatternet_grid()] {
        let shards = GridPartitioner::new().partition(&grid);
        assert_eq!(shards.len(), 1, "both cells share one checkpoint");
        let path = runner.checkpoint_path(&shards[0]);
        let payloads = frames(&grid);
        let clean = framed(&payloads);
        let other = if grid.piconets[0] == 1 {
            scatternet_grid()
        } else {
            piconet_grid()
        };
        let foreign = framed(&frames(&other));

        // The clean checkpoint replays both cells without a worker.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, &clean).unwrap();
        let outcome = runner.run(&grid).expect("a clean checkpoint replays");
        assert_eq!(outcome.replayed_cells, 2);
        let reference = grid.cells().iter().map(GridCell::run).collect();
        assert_eq!(
            outcome.report.digest(),
            btgs::core::GridReport { cells: reference }.digest()
        );

        let mutations: Vec<String> = (0..CHECKPOINT_MUTATIONS)
            .map(|_| mutate(&mut rng, &clean, &foreign))
            .collect();
        failures.extend(panics_of(&mutations, |m| {
            std::fs::write(&path, m).unwrap();
            // The aggregator reads every replayed report.
            let _ = runner.run_streaming(&grid, &mut OnlineAggregator::for_grid(&grid));
            // The replay left a well-formed prefix behind: a second
            // replay accepts or rejects the same cells without panicking.
            let _ = runner.run(&grid);
        }));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        failures.is_empty(),
        "replay panics:\n{}",
        failures.join("\n")
    );
}

#[test]
fn byte_flipped_streams_read_to_errors_not_panics() {
    let piconet = frames(&piconet_grid()).swap_remove(0);
    let scatternet = frames(&scatternet_grid()).swap_remove(0);
    let mut rng = DetRng::seed_from_u64(0xB17E_F0A2);
    let mut failures = Vec::new();
    for stream in [
        framed(&[piconet.clone(), scatternet.clone()]),
        framed(&[scatternet, piconet]),
    ] {
        let mutations: Vec<Vec<u8>> = (0..BYTE_MUTATIONS)
            .map(|_| flip_bytes(&mut rng, stream.as_bytes()))
            .collect();
        assert!(
            mutations
                .iter()
                .filter(|m| std::str::from_utf8(m).is_err())
                .count()
                > BYTE_MUTATIONS / 2,
            "most byte flips leave invalid UTF-8"
        );
        failures.extend(panics_of(&mutations, |m| {
            read_all(m);
            // The decoder sees the lossy text too: replacement characters
            // in keys, numbers and strings.
            let _ = frame_from_json(&String::from_utf8_lossy(m));
        }));
    }
    assert!(
        failures.is_empty(),
        "decoder panics:\n{}",
        failures.join("\n")
    );
}

#[test]
fn byte_flipped_checkpoints_replay_to_errors_not_panics() {
    let dir = std::env::temp_dir().join(format!("btgs-wire-bytes-{}", std::process::id()));
    let runner = ShardedGridRunner::new(&dir.join("no-such-worker"), &dir, 1).with_retries(0);
    let mut rng = DetRng::seed_from_u64(0xB17E_C4EC);
    let mut failures = Vec::new();
    std::fs::create_dir_all(&dir).unwrap();
    for grid in [piconet_grid(), scatternet_grid()] {
        let shards = GridPartitioner::new().partition(&grid);
        let path = runner.checkpoint_path(&shards[0]);
        let clean = framed(&frames(&grid));
        let mutations: Vec<Vec<u8>> = (0..BYTE_CHECKPOINT_MUTATIONS)
            .map(|_| flip_bytes(&mut rng, clean.as_bytes()))
            .collect();
        failures.extend(panics_of(&mutations, |m| {
            std::fs::write(&path, m).unwrap();
            let _ = runner.run_streaming(&grid, &mut OnlineAggregator::for_grid(&grid));
            let _ = runner.run(&grid);
        }));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        failures.is_empty(),
        "replay panics:\n{}",
        failures.join("\n")
    );
}
