//! Reproduction harness: regenerates every figure/query artifact of the
//! paper and prints paper-vs-measured rows; it exits nonzero on any
//! mismatch.
//!
//! ```sh
//! cargo run --bin repro            # everything
//! cargo run --bin repro fig1       # E1 only
//! cargo run --bin repro fig2       # E2 only
//! cargo run --bin repro queries    # E3–E7
//! cargo run --bin repro baseline   # E8 answer-equality + size shapes
//! ```

use multihier_xquery::baseline::{queries, to_fragmentation, to_milestone};
use multihier_xquery::corpus::figure1;
use multihier_xquery::corpus::{generate, GeneratorConfig};
use multihier_xquery::goddag::dot;
use multihier_xquery::xquery::run_query;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let mut failures = 0usize;
    match which.as_str() {
        "fig1" => fig1(&mut failures),
        "fig2" => fig2(),
        "queries" => queries_repro(&mut failures),
        "baseline" => baseline(&mut failures),
        _ => {
            fig1(&mut failures);
            fig2();
            queries_repro(&mut failures);
            baseline(&mut failures);
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} reproduction check(s) FAILED");
        std::process::exit(1);
    }
    println!("\nall reproduction checks passed");
}

fn check(failures: &mut usize, id: &str, got: &str, want: &str) {
    if got == want {
        println!("[OK ] {id}");
        println!("      {got}");
    } else {
        *failures += 1;
        println!("[FAIL] {id}");
        println!("   got {got}");
        println!("  want {want}");
    }
}

/// E1 — Figure 1: four concurrent encodings, text identity, CMH validity,
/// serializer round-trip.
fn fig1(failures: &mut usize) {
    println!("=== E1: Figure 1 — four encodings of the manuscript fragment ===");
    let cmh = figure1::cmh();
    let docs = figure1::documents();
    match cmh.validate_documents(&docs) {
        Ok(()) => println!("[OK ] all 4 encodings valid against the CMH (root <{}>)", cmh.root()),
        Err(e) => {
            *failures += 1;
            println!("[FAIL] CMH validation: {e}");
        }
    }
    for ((name, src), doc) in figure1::ENCODINGS.iter().zip(&docs) {
        let text = doc.string_value(doc.root_element().expect("root"));
        check(failures, &format!("encoding `{name}` spells S"), &text, figure1::TEXT);
        let round = mhx_xml::to_string(doc);
        if &round != src {
            *failures += 1;
            println!("[FAIL] `{name}` does not round-trip");
        }
    }
    println!();
}

/// E2 — Figure 2: the KyGODDAG structure (16 leaves, labelled nodes).
fn fig2() {
    println!("=== E2: Figure 2 — the KyGODDAG ===");
    let g = figure1::goddag();
    print!("{}", dot::to_text(&g));
    let mut elements = 0usize;
    let mut texts = 0usize;
    for (_, hier) in g.hierarchies() {
        elements += hier.element_count();
        texts += hier.text_count();
    }
    println!(
        "totals: 1 root + {elements} element nodes + {texts} text nodes + {} leaves\n",
        g.leaf_count()
    );
}

/// E3–E7 — every §4 query, paper-vs-measured.
fn queries_repro(failures: &mut usize) {
    println!("=== E3–E7: paper queries ===");
    let g = figure1::goddag();
    for (id, query, expected) in figure1::PAPER_QUERIES {
        match run_query(&g, query) {
            Ok(out) => check(failures, &format!("query {id}"), &out, expected),
            Err(e) => {
                *failures += 1;
                println!("[FAIL] query {id}: {e}");
            }
        }
    }
    println!(
        "\nnote: I.2 uses the word-level predicate (the printed per-leaf predicate,\n\
         I.2-strict, does not give the printed output) and II.1 reads the printed\n\
         child::*/parent::m as child::node()/self::m (child::* drops the unmatched\n\
         text the printed output shows); III.1 asserts strict Definition-1 output,\n\
         since the paper's printed string does not follow from its own markup.\n"
    );
}

/// E8 — the three representations answer identically; sizes show the
/// single-document blowup shape.
fn baseline(failures: &mut usize) {
    println!("=== E8: representation comparison (answers + size shape) ===");
    println!(
        "{:>7} {:>8} {:>10} {:>10} {:>10} {:>6}",
        "jitter", "overlap", "separate", "milestone", "fragments", "agree"
    );
    for jitter in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let doc = generate(&GeneratorConfig {
            text_len: 3000,
            hierarchies: 3,
            boundary_jitter: jitter,
            ..Default::default()
        });
        let g = doc.build_goddag();
        let ms = to_milestone(&g, "h0");
        let fr = to_fragmentation(&g, "h0");
        let gd = queries::goddag_overlap_count(&g, "e0", "e1");
        let msc = queries::milestone_overlap_count(&ms, "e0", "h1", "e1");
        let frc = queries::fragmentation_overlap_count(&fr, "e0", "h1", "e1");
        let agree = gd == msc && gd == frc;
        if !agree {
            *failures += 1;
        }
        let sep: usize = doc.encodings.iter().map(|(_, s)| s.len()).sum();
        println!(
            "{:>7.2} {:>8.3} {:>10} {:>10} {:>10} {:>6}",
            jitter,
            doc.overlap_density(),
            sep,
            ms.serialized_len(),
            fr.serialized_len(),
            if agree { "yes" } else { "NO" },
        );
    }
    println!("(timings: cargo bench -p mhx-bench)");
}
