//! Lint CLI over Sequence Datalog program files: parses each file, runs
//! the compile-time analysis subsystem (`seqlog_core::analysis`), and
//! prints the stratified schedule plus `SL001`..`SL009` diagnostics.
//!
//! Run with: `cargo run --example analyze -- [--check] [--machines] FILE...`
//!
//! Program files may carry comment directives (`%` starts a line
//! comment in the concrete syntax, so evaluation ignores them):
//!
//! * `% edb: p, q` — analyze under the closed-world reading: exactly
//!   these predicates are database predicates
//!   ([`ProgramReport::analyze_with_edb`]); without the directive the
//!   open-world default applies (every non-head predicate is a database
//!   predicate).
//! * `% expect: SL003 SL005` — the diagnostic codes this file is
//!   *supposed* to produce (a lint fixture). Under `--check`, a file
//!   fails when its emitted code set differs from its expected set — so
//!   CI fails both on a new warning in a clean program and on a fixture
//!   that stops reproducing its lint.
//! * `% adorn: pred(b,f)` — also print the demand (magic-set)
//!   transformation for this goal and binding pattern (`b` = bound,
//!   `f` = free). The same transformation can be requested from the
//!   command line with `--adorn 'pred(b,f)'` for every file.
//! * `% expect-fallback: dbl` — the predicates the transformation is
//!   *supposed* to exempt from demand guarding (constructive or
//!   domain-sensitive strata). Under `--check`, a file with an
//!   `% adorn:` directive fails when the actual fallback set differs —
//!   including the clean case, where the directive is absent and the
//!   fallback set must be empty.
//! * `% machines: rot, collapse` — register these machines from the
//!   built-in demo catalog (see [`install_machine`]) before analysis, so
//!   fixtures can exercise the machine-level lints `SL007`..`SL009`.
//! * `% expect-fusion: applied` — the set of fusion-decision outcomes
//!   (`applied` / `declined`) the file's transducer chains must produce.
//!   Under `--check`, mismatches fail, pinning not just that `SL009`
//!   fires but *which way* the decision went.
//!
//! `--machines` additionally prints, per registered machine, its size,
//! whether it is functional, and its minimized size under the transducer
//! algebra.
//!
//! Exit status: 0 when every file matches its expectation (clean files
//! expect no diagnostics), 1 otherwise. `scripts/ci_check.sh` runs this
//! over every program in `examples/programs/`.

use sequence_datalog::core::analysis::magic::magic_transform;
use sequence_datalog::core::analysis::{fuse_program, Adornment, FuseLimits, ProgramReport};
use sequence_datalog::core::compile::compile;
use sequence_datalog::core::Engine;
use sequence_datalog::transducer::{library, DeterminizeCaps, Fst};
use std::collections::BTreeSet;
use std::process::ExitCode;

/// A parsed `pred(b,f,...)` goal/binding-pattern specification.
struct AdornSpec {
    pred: String,
    pattern: Adornment,
}

fn parse_adorn_spec(spec: &str) -> Option<AdornSpec> {
    let (name, rest) = spec.split_once('(')?;
    let inner = rest.trim().strip_suffix(')')?;
    let letters: String = inner.chars().filter(|c| !" ,".contains(*c)).collect();
    Some(AdornSpec {
        pred: name.trim().to_string(),
        pattern: Adornment::parse(&letters)?,
    })
}

/// Comment directives of one program file.
#[derive(Default)]
struct Directives {
    /// `% edb:` — closed-world database predicates, when present.
    edb: Option<Vec<String>>,
    /// `% expect:` — expected diagnostic codes (empty set when absent).
    expect: BTreeSet<String>,
    /// `% adorn:` — demand transformations to print for this file.
    adorn: Vec<AdornSpec>,
    /// `% expect-fallback:` — predicates the transformation must exempt
    /// from guarding (empty set when absent).
    expect_fallback: BTreeSet<String>,
    /// `% machines:` — demo-catalog machines to register before analysis.
    machines: Vec<String>,
    /// `% expect-fusion:` — expected fusion-decision outcomes
    /// (`applied` / `declined`), when present.
    expect_fusion: Option<BTreeSet<String>>,
}

fn parse_directives(src: &str) -> Option<Directives> {
    let mut d = Directives::default();
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix('%') else {
            continue;
        };
        let rest = rest.trim();
        if let Some(list) = rest.strip_prefix("edb:") {
            d.edb = Some(
                list.split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty())
                    .collect(),
            );
        } else if let Some(list) = rest.strip_prefix("expect:") {
            d.expect.extend(list.split_whitespace().map(str::to_string));
        } else if let Some(spec) = rest.strip_prefix("adorn:") {
            d.adorn.push(parse_adorn_spec(spec.trim())?);
        } else if let Some(list) = rest.strip_prefix("expect-fallback:") {
            d.expect_fallback.extend(
                list.split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty()),
            );
        } else if let Some(list) = rest.strip_prefix("machines:") {
            d.machines.extend(
                list.split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty()),
            );
        } else if let Some(list) = rest.strip_prefix("expect-fusion:") {
            d.expect_fusion
                .get_or_insert_with(BTreeSet::new)
                .extend(list.split_whitespace().map(str::to_string));
        }
    }
    Some(d)
}

/// Register one machine from the demo catalog into `engine`. The catalog
/// spans every machine-lint shape: `rot` / `collapse` are functional
/// 1-state mappers (fusable chains, `SL009` applied), `square` is an
/// order-2 machine the unary algebra declines, `pick` is a
/// nondeterministic relation (`SL007`), and `gappy` carries dead states
/// (`SL008`).
fn install_machine(engine: &mut Engine, name: &str) -> bool {
    let a = &mut engine.alphabet;
    let s: Vec<_> = "abc".chars().map(|c| a.intern_char(c)).collect();
    match name {
        "rot" => {
            let m = library::mapper(a, "rot", &[(s[0], s[1]), (s[1], s[2]), (s[2], s[0])]);
            engine.registry.register("rot", m);
        }
        "collapse" => {
            let m = library::mapper(a, "collapse", &[(s[0], s[0]), (s[1], s[0]), (s[2], s[0])]);
            engine.registry.register("collapse", m);
        }
        "square" => {
            let m = library::square(a, &s);
            engine.registry.register("square", m);
        }
        "pick" => {
            // On `a`, emit `a` or `b`: a relation, not a function.
            let mut f = Fst::new("pick", 1);
            f.add_arc(0, s[0], vec![s[0]], 0);
            f.add_arc(0, s[0], vec![s[1]], 0);
            f.add_arc(0, s[1], vec![s[1]], 0);
            f.set_final(0, Vec::new());
            f.normalize();
            let end = engine.alphabet.end_marker();
            engine.registry.register_fst("pick", f, end);
        }
        "gappy" => {
            // State 1 is unreachable, state 2 reachable but stuck: both dead.
            let mut f = Fst::new("gappy", 3);
            f.add_arc(0, s[0], vec![s[0]], 0);
            f.add_arc(0, s[1], vec![s[1]], 2);
            f.add_arc(1, s[0], vec![s[0]], 1);
            f.set_final(0, Vec::new());
            f.normalize();
            let end = engine.alphabet.end_marker();
            engine.registry.register_fst("gappy", f, end);
        }
        _ => return false,
    }
    true
}

/// Print the `--machines` table: per registered machine, its size, whether
/// it is functional, and its minimized size under the transducer algebra.
fn print_machines(engine: &Engine) {
    let reg = &engine.registry;
    let mut names: BTreeSet<&str> = reg.names().collect();
    names.extend(reg.fst_names());
    for name in names {
        let fst = reg
            .fst(name)
            .cloned()
            .or_else(|| reg.get(name).and_then(|t| t.algebra().ok()));
        let Some(f) = fst else {
            let t = reg.get(name).expect("listed name resolves");
            println!(
                "@{name}: {} states, {} transitions (order {}, {} input(s): outside the unary algebra)",
                t.num_states(),
                t.num_transitions(),
                t.order(),
                t.num_inputs,
            );
            continue;
        };
        let functional = f.is_functional();
        let minimized = if f.is_deterministic() {
            f.minimize().ok()
        } else {
            f.determinize(&DeterminizeCaps::default())
                .ok()
                .and_then(|d| d.minimize().ok())
        };
        let minimized = minimized.map_or_else(
            || "n/a (not subsequential)".to_string(),
            |m| format!("{} states / {} transitions", m.num_states(), m.num_arcs()),
        );
        println!(
            "@{name}: {} states, {} transitions, functional: {}, minimized: {minimized}",
            f.num_states(),
            f.num_arcs(),
            if functional { "yes" } else { "no" },
        );
    }
}

/// Analyze one file; returns `true` when its diagnostics match the
/// `% expect:` set (empty for clean programs) and, when a demand
/// transformation was requested, its fallback set matches
/// `% expect-fallback:`.
fn analyze_file(path: &str, cli_adorn: &[AdornSpec], show_machines: bool) -> bool {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: cannot read: {e}");
            return false;
        }
    };
    let Some(directives) = parse_directives(&src) else {
        eprintln!("{path}: malformed % adorn: directive");
        return false;
    };
    let mut engine = Engine::new();
    for name in &directives.machines {
        if !install_machine(&mut engine, name) {
            eprintln!("{path}: % machines: unknown demo machine `{name}`");
            return false;
        }
    }
    let program = match engine.parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: parse error: {e}");
            return false;
        }
    };
    let compiled = match compile(&program) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{path}: compile error: {e}");
            return false;
        }
    };
    let mut report = match &directives.edb {
        Some(names) => {
            let edb: Vec<_> = names
                .iter()
                .filter_map(|n| compiled.preds.lookup(n))
                .collect();
            ProgramReport::analyze_with_edb(&compiled, &edb)
        }
        None => ProgramReport::analyze(&compiled),
    };
    // Machine-level pass: `SL007`..`SL009` plus fusion decisions.
    report.attach_fusion(&fuse_program(
        &compiled,
        &engine.registry,
        &FuseLimits::default(),
    ));

    println!("── {path} ──");
    print!("{}", report.render());
    if show_machines {
        print_machines(&engine);
    }

    let mut ok = true;
    let emitted: BTreeSet<String> = report
        .diagnostics
        .iter()
        .map(|d| d.code.as_str().to_string())
        .collect();
    if emitted != directives.expect {
        for unexpected in emitted.difference(&directives.expect) {
            eprintln!("{path}: unexpected diagnostic {unexpected}");
        }
        for missing in directives.expect.difference(&emitted) {
            eprintln!("{path}: expected diagnostic {missing} did not fire");
        }
        ok = false;
    }

    if let Some(expect_fusion) = &directives.expect_fusion {
        let observed: BTreeSet<String> = report
            .fusion
            .iter()
            .map(|d| if d.applied { "applied" } else { "declined" }.to_string())
            .collect();
        if observed != *expect_fusion {
            eprintln!(
                "{path}: fusion outcomes {{{}}} differ from expected {{{}}}",
                observed.iter().cloned().collect::<Vec<_>>().join(", "),
                expect_fusion.iter().cloned().collect::<Vec<_>>().join(", "),
            );
            ok = false;
        }
    }

    // Demand transformations: file directives first, then CLI requests.
    let mut fallback: BTreeSet<String> = BTreeSet::new();
    let mut adorned_any = false;
    for spec in directives.adorn.iter().chain(cli_adorn) {
        let Some(goal) = compiled.preds.lookup(&spec.pred) else {
            eprintln!("{path}: --adorn: unknown predicate {}", spec.pred);
            ok = false;
            continue;
        };
        adorned_any = true;
        let magic = magic_transform(&compiled, goal, &spec.pattern);
        println!("── demand: {}({}) ──", spec.pred, spec.pattern);
        if magic.full_fallback {
            println!("(domain-sensitive goal cone: full-evaluation fallback)");
        }
        print!("{}", magic.render(&|id| engine.render(id)));
        let names = magic.fallback_names();
        if !names.is_empty() {
            println!("fallback (unguarded): {}", names.join(", "));
        }
        fallback.extend(names.iter().map(|n| n.to_string()));
    }
    if adorned_any && fallback != directives.expect_fallback {
        for unexpected in fallback.difference(&directives.expect_fallback) {
            eprintln!("{path}: unexpected fallback predicate {unexpected}");
        }
        for missing in directives.expect_fallback.difference(&fallback) {
            eprintln!("{path}: expected fallback predicate {missing} is guarded");
        }
        ok = false;
    }
    ok
}

fn main() -> ExitCode {
    let mut check = false;
    let mut machines = false;
    let mut files: Vec<String> = Vec::new();
    let mut cli_adorn: Vec<AdornSpec> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--machines" => machines = true,
            "--adorn" => {
                let Some(spec) = args.next().as_deref().and_then(parse_adorn_spec) else {
                    eprintln!("--adorn expects a 'pred(b,f,...)' argument");
                    return ExitCode::FAILURE;
                };
                cli_adorn.push(spec);
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("usage: analyze [--check] [--machines] [--adorn 'pred(b,f,...)'] FILE...");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in &files {
        ok &= analyze_file(path, &cli_adorn, machines);
        println!();
    }
    if check && !ok {
        eprintln!("analyze --check: diagnostics differ from expectations");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
