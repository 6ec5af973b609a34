//! Regenerates the committed golden-trace fixtures under `tests/golden/`.
//!
//! The fixture *definitions* live in `netsim::longtrace::golden_fixture_set`
//! so this binary and the regression suite (`tests/golden_traces.rs`) can
//! never drift apart: the suite regenerates every fixture in memory and
//! compares it byte-for-byte against the committed files. After an
//! intentional change to packet synthesis (`PacketTemplates`, the
//! `EmissionMixer`, AWGN) or to the fixture set, run this binary from the
//! repository root and commit the updated files.

use std::path::PathBuf;

use netsim::golden_fixture_set;
use netsim::longtrace::write_golden;

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("tests/golden"));
    for fixture in golden_fixture_set() {
        write_golden(&dir, &fixture).unwrap_or_else(|e| {
            panic!(
                "failed to write fixture {} to {}: {e}",
                fixture.name,
                dir.display()
            )
        });
        println!(
            "wrote {}/{}.iq ({} samples, {} packet(s)) + manifest",
            dir.display(),
            fixture.name,
            fixture.trace.len(),
            fixture.truth.len()
        );
    }
}
