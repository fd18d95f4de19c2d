//! Golden snapshot of the `search` subcommand over the feasible
//! library queries: the full stdout JSON document, byte-exact.
//!
//! Each query runs twice: once at a small point budget with the default
//! confirmation count (scan + short-list + simulated confirmation), and
//! once scanning several burst limits and load scales without
//! confirmation, so the snapshot pins many (burst, load-scale) cells of
//! the analytic scan — saturated and unsaturated alike. Any drift in
//! the closed forms, the scan's bookkeeping, the short-list order, or
//! the confirmation runs shows up as a byte diff.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```console
//! $ REGEN_GOLDEN=1 cargo test --test golden_search
//! $ git diff tests/golden/   # review before committing
//! ```

use lotterybus_cli::search_cmd::run_search_command;

const GOLDEN_PATH: &str = "tests/golden/search_library.json";

/// The library scenarios whose SLA block is feasible: `search` confirms
/// at least one candidate for each.
const QUERIES: [&str; 10] = [
    "atm-burst",
    "baseline-fairness",
    "bridge-congestion",
    "degraded-mode",
    "grant-glitches",
    "lottery-no-starvation",
    "mixed-criticality",
    "multi-tenant-isolation",
    "search-tuned",
    "token-fairness",
];

/// The flag sets every query runs under.
const FLAG_SETS: [&[&str]; 2] = [
    &["--points", "4096"],
    &["--points", "2048", "--bursts", "4,16,64", "--load-scales", "0.25,0.5,1.0", "--confirm", "0"],
];

/// Renders every (query, flag set) stdout payload into one JSON object,
/// keyed by the command line. Payloads are embedded verbatim, so the
/// document is byte-exact against the command's own rendering.
fn render() -> String {
    let mut entries = Vec::new();
    for name in QUERIES {
        for flags in FLAG_SETS {
            let path = format!("scenarios/{name}.scenario");
            let mut args = vec![path.clone()];
            args.extend(flags.iter().map(|f| (*f).to_owned()));
            let (stdout, ok) = run_search_command(&args)
                .unwrap_or_else(|e| panic!("search {path}: {}", e.message()));
            let confirming = !flags.contains(&"--confirm");
            if confirming {
                assert!(ok, "{name}: a feasible library query must confirm a candidate");
            }
            entries.push(format!("\"{}\":{}", args.join(" "), stdout.trim_end()));
        }
    }
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

#[test]
fn golden_search_library_is_stable() {
    let document = render();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &document).expect("write golden snapshot");
        eprintln!("regenerated {GOLDEN_PATH}");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e}; run with REGEN_GOLDEN=1 to create it")
    });
    for (line, (now, was)) in document.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            now,
            was,
            "search output drifted from the golden snapshot at line {}; if the change \
             is intentional, regenerate with REGEN_GOLDEN=1 and review the diff",
            line + 1
        );
    }
    assert_eq!(document, golden, "search output drifted from the golden snapshot");
}
