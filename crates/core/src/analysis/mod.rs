//! Compile-time program analysis over the compiled IR.
//!
//! This subsystem turns the paper's static story (Sections 5–8) into
//! machine-checkable structure: the predicate dependency graph
//! (Definition 9) is condensed into strongly connected components
//! ([`graph`]), the components are laid out as a topological evaluation
//! [`Schedule`] that [`crate::eval`] follows stratum by stratum, and a
//! lint engine ([`lint`]) emits stable `SL001`..`SL006` diagnostics
//! covering strong safety (Theorem 8), range restriction, dead code, and
//! arity hygiene. Everything operates on [`CompiledProgram`] / `PredId` —
//! no predicate-name strings on the analysis path.
//!
//! [`ProgramReport`] is the crate's one static-analysis report. Besides
//! the graph, strata and lints it carries the fragment flags the paper
//! classifies programs by: guardedness (Appendix B), the non-constructive
//! fragment (Theorem 3), and the program order (Section 7.1).
//!
//! Entry points: [`crate::engine::Engine::analyze`] (compile, analyze,
//! then attach fusion and the registered machines' order),
//! [`ProgramReport::analyze`] (database predicates inferred as the
//! predicates heading no clause) and [`ProgramReport::analyze_with_edb`]
//! (explicit closed-world set, used by sessions which know what has
//! actually been asserted).

pub mod adorn;
pub mod fuse;
pub mod graph;
pub mod lint;
pub mod magic;
pub mod schedule;

pub use adorn::{AdornedClause, AdornedProgram, Adornment, Bind, Binding};
pub use fuse::{fuse_program, FuseLimits, FusePass, FusionDecision};
pub use graph::{Condensation, DepEdge, GraphBuilder, PredGraph};
pub use lint::{Diagnostic, LintCode, Severity};
pub use magic::{magic_transform, render_clause, MagicProgram};
pub use schedule::{Schedule, Stratum};

use crate::compile::{CBody, CompiledProgram, PredId};
use crate::registry::TransducerRegistry;
use std::fmt::Write as _;

/// Static facts about one compiled clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClauseFacts {
    /// The head contains a constructive (`++`) or transducer term
    /// (Definition 8).
    pub constructive: bool,
    /// Evaluation may consult the extended active domain beyond matched
    /// facts, so the clause re-runs when the domain grows.
    pub domain_sensitive: bool,
    /// The clause has no variables at all.
    pub ground: bool,
    /// Every sequence variable is guarded (Appendix B).
    pub guarded: bool,
    /// Some body atom reads a predicate in the head's strongly connected
    /// component (directly or mutually recursive).
    pub self_recursive: bool,
    /// The stratum (component id) owning the head predicate.
    pub stratum: u32,
}

/// The complete static-analysis report for a compiled program.
#[derive(Clone, Debug)]
pub struct ProgramReport {
    /// Per-clause facts, indexed like
    /// [`CompiledProgram::clauses`](crate::compile::CompiledProgram::clauses).
    pub clause_facts: Vec<ClauseFacts>,
    /// Lint diagnostics, sorted by (code, clause, predicate).
    pub diagnostics: Vec<Diagnostic>,
    /// The predicate dependency graph (Definition 9) over `PredId` nodes.
    pub graph: PredGraph,
    /// Its SCC condensation with topological stratum levels.
    pub condensation: Condensation,
    /// The stratified evaluation schedule derived from the condensation.
    pub schedule: Schedule,
    /// True when no constructive edge lies on a cycle (Theorem 8) — i.e.
    /// no `SL001` diagnostic fired.
    pub strongly_safe: bool,
    /// True when every clause is guarded (Appendix B).
    pub guarded: bool,
    /// True when no clause is constructive: the non-constructive Sequence
    /// Datalog fragment of Theorem 3.
    pub non_constructive: bool,
    /// Program order (Section 7.1): 0 for a non-constructive program,
    /// otherwise the highest order among the registered machines named in
    /// clause heads, and at least 1 (`++` is an order-1 device). The
    /// registry-free analysis reports 0 or 1 until
    /// [`ProgramReport::attach_order`] consults a registry.
    pub order: usize,
    /// Transducer-fusion decisions (empty until a machine-level pass is
    /// attached via [`ProgramReport::attach_fusion`], since fusion needs a
    /// registry the pure program analysis does not have).
    pub fusion: Vec<FusionDecision>,
    pred_names: Vec<String>,
}

impl ProgramReport {
    /// Analyze a compiled program, inferring the database predicates as
    /// those that head no clause (the conventional EDB reading).
    pub fn analyze(program: &CompiledProgram) -> Self {
        let mut edb = vec![true; program.preds.len()];
        for clause in &program.clauses {
            edb[clause.head.pred.index()] = false;
        }
        Self::analyze_impl(program, edb)
    }

    /// Analyze with an explicit set of database (assertable) predicates —
    /// the closed-world variant used by [`crate::session::EngineSession`],
    /// where the EDB is exactly what has been asserted.
    pub fn analyze_with_edb(program: &CompiledProgram, edb: &[PredId]) -> Self {
        let mut flags = vec![false; program.preds.len()];
        for p in edb {
            if p.index() < flags.len() {
                flags[p.index()] = true;
            }
        }
        Self::analyze_impl(program, flags)
    }

    fn analyze_impl(program: &CompiledProgram, edb: Vec<bool>) -> Self {
        let n = program.preds.len();
        let mut heads = vec![false; n];
        for clause in &program.clauses {
            heads[clause.head.pred.index()] = true;
        }
        let graph = schedule::clause_graph(&program.clauses, n);
        let condensation = graph.condense();
        let schedule = Schedule::from_condensation(&program.clauses, n, &condensation);
        let mut diagnostics = lint::run_lints(program, &graph, &condensation, &edb, &heads);
        diagnostics.sort_by(|a, b| {
            (a.code, a.clause, &a.pred, &a.message).cmp(&(b.code, b.clause, &b.pred, &b.message))
        });
        let strongly_safe = !diagnostics
            .iter()
            .any(|d| d.code == LintCode::ConstructiveCycle);

        let clause_facts = program
            .clauses
            .iter()
            .map(|clause| {
                let comp = condensation.comp[clause.head.pred.index()];
                let self_recursive = clause.body.iter().any(|lit| match lit {
                    CBody::Atom(a) => condensation.comp[a.pred.index()] == comp,
                    CBody::Eq(..) | CBody::Neq(..) => false,
                });
                ClauseFacts {
                    constructive: clause.constructive,
                    domain_sensitive: clause.domain_sensitive,
                    ground: clause.n_seq == 0 && clause.n_idx == 0,
                    guarded: clause.is_guarded(),
                    self_recursive,
                    stratum: comp,
                }
            })
            .collect::<Vec<_>>();
        let guarded = clause_facts.iter().all(|f| f.guarded);
        let non_constructive = !clause_facts.iter().any(|f| f.constructive);

        Self {
            clause_facts,
            diagnostics,
            graph,
            condensation,
            schedule,
            strongly_safe,
            guarded,
            non_constructive,
            order: usize::from(!non_constructive),
            fusion: Vec::new(),
            pred_names: program.preds.iter().map(|(_, n)| n.to_string()).collect(),
        }
    }

    /// Merge a machine-level [`fuse::FusePass`] into the report: its
    /// `SL007`–`SL009` diagnostics join (and re-sort) the program-level
    /// ones, and its fusion decisions become [`ProgramReport::fusion`].
    pub fn attach_fusion(&mut self, pass: &fuse::FusePass) {
        self.diagnostics.extend(pass.diagnostics.iter().cloned());
        self.diagnostics.sort_by(|a, b| {
            (a.code, a.clause, &a.pred, &a.message).cmp(&(b.code, b.clause, &b.pred, &b.message))
        });
        self.fusion = pass.decisions.clone();
    }

    /// Raise [`ProgramReport::order`] to the highest order among the
    /// machines in `registry` that `program`'s clause heads call
    /// (Section 7.1); unregistered names are ignored.
    pub fn attach_order(&mut self, program: &CompiledProgram, registry: &TransducerRegistry) {
        let mut names = Vec::new();
        for clause in &program.clauses {
            for term in &clause.head.args {
                fuse::collect_refs(term, &mut names);
            }
        }
        let machines = registry.program_order(names.iter().map(String::as_str));
        self.order = self.order.max(machines);
    }

    /// The name of dependency-graph node `node` (a [`PredId`] index), so
    /// [`PredGraph::edges`] and the constructive-cycle edges print by name.
    pub fn pred_name(&self, node: u32) -> &str {
        &self.pred_names[node as usize]
    }

    /// True when some diagnostic has [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The diagnostics carrying a given code.
    pub fn with_code(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Render the report for human consumption: the stratum layout in
    /// topological order, then each diagnostic on its own line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} strata over {} predicates ({})",
            self.schedule.strata.len(),
            self.pred_names.len(),
            if self.strongly_safe {
                "strongly safe"
            } else {
                "NOT strongly safe"
            }
        );
        for (si, stratum) in self.schedule.strata.iter().enumerate() {
            let preds = stratum
                .preds
                .iter()
                .map(|p| self.pred_names[p.index()].as_str())
                .collect::<Vec<_>>()
                .join(", ");
            let mut tags = Vec::new();
            if stratum.clauses.is_empty() {
                tags.push("source");
            }
            if stratum.recursive {
                tags.push("recursive");
            }
            if stratum.domain_sensitive {
                tags.push("domain-sensitive");
            }
            let tags = if tags.is_empty() {
                String::new()
            } else {
                format!(" [{}]", tags.join(", "))
            };
            let _ = writeln!(
                out,
                "  stratum {si}: {preds} ({} clause{}){tags}",
                stratum.clauses.len(),
                if stratum.clauses.len() == 1 { "" } else { "s" }
            );
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        for f in &self.fusion {
            let site = match f.clause {
                Some(ci) => format!("clause {ci}"),
                None => "network".to_string(),
            };
            if f.applied {
                let _ = writeln!(
                    out,
                    "fusion ({site}): {} -> `@{}` ({} st / {} tr -> {} st / {} tr)",
                    f.chain_display(),
                    f.fused_name,
                    f.chain_states,
                    f.chain_transitions,
                    f.fused_states,
                    f.fused_transitions,
                );
            } else {
                let _ = writeln!(
                    out,
                    "fusion ({site}): {} declined: {}",
                    f.chain_display(),
                    f.reason
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse_program;
    use seqlog_sequence::{Alphabet, SeqStore};

    fn compiled(src: &str) -> CompiledProgram {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let p = parse_program(src, &mut a, &mut st).unwrap();
        compile(&p).unwrap()
    }

    /// The report [`crate::engine::Engine::analyze`] gives for `src`.
    fn report(src: &str) -> ProgramReport {
        let mut e = crate::engine::Engine::new();
        let p = e.parse_program(src).unwrap();
        e.analyze(&p).unwrap()
    }

    /// The node id of the predicate named `name` in `r`'s graph.
    fn node(r: &ProgramReport, name: &str) -> u32 {
        (0..r.graph.len() as u32)
            .find(|&n| r.pred_name(n) == name)
            .unwrap()
    }

    /// The constructive-cycle edges (the `SL001` witnesses) by name.
    fn violations(r: &ProgramReport) -> Vec<(&str, &str)> {
        r.graph
            .constructive_cycle_edges(&r.condensation)
            .iter()
            .map(|e| (r.pred_name(e.from), r.pred_name(e.to)))
            .collect()
    }

    fn codes(report: &ProgramReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn sl001_constructive_cycle_is_an_error() {
        let cp = compiled("p(X ++ X) :- p(X).");
        let r = ProgramReport::analyze(&cp);
        let sl1: Vec<_> = r.with_code(LintCode::ConstructiveCycle).collect();
        assert_eq!(sl1.len(), 1);
        assert_eq!(sl1[0].severity, Severity::Error);
        assert!(!r.strongly_safe);
        assert!(r.has_errors());
        // The indirect cycle of Example 8.1 (P3) is also caught: only the
        // constructive edge q -> p is reported, not the plain edge p -> q.
        let cp = compiled("p(X) :- q(X).\nq(X ++ X) :- p(X).");
        let r = ProgramReport::analyze(&cp);
        let sl1: Vec<_> = r.with_code(LintCode::ConstructiveCycle).collect();
        assert_eq!(sl1.len(), 1);
        assert_eq!(sl1[0].pred.as_deref(), Some("q"));
    }

    #[test]
    fn sl002_unbound_head_variable_flags_seq_but_not_idx() {
        let cp = compiled("p(X, Y) :- q(X).");
        let r = ProgramReport::analyze(&cp);
        assert_eq!(codes(&r), vec!["SL002"]);
        assert_eq!(r.diagnostics[0].clause, Some(0));
        assert!(r.diagnostics[0].message.contains("`Y`"));
        // A free head *index* variable is the structural-recursion idiom
        // (Example 1.1): enumerated over a bounded position range, not the
        // domain — no lint.
        let cp = compiled("suffix(X[N:end]) :- r(X).");
        let r = ProgramReport::analyze(&cp);
        assert!(codes(&r).is_empty());
        // A body occurrence in an equality counts as bound.
        let cp = compiled("p(X, Y) :- q(X), Y = X.");
        let r = ProgramReport::analyze(&cp);
        assert!(codes(&r).is_empty());
    }

    #[test]
    fn sl003_dead_clause_via_provably_empty_body_pred() {
        // p has only a self-recursive definition and is not a database
        // predicate, so p is provably empty and both clauses are dead.
        let cp = compiled("p(X) :- p(X).\nq(X) :- p(X).");
        let r = ProgramReport::analyze(&cp);
        assert_eq!(codes(&r), vec!["SL003", "SL003"]);
        assert_eq!(r.diagnostics[0].clause, Some(0));
        assert_eq!(r.diagnostics[1].clause, Some(1));
        // Declaring p as a database predicate revives both clauses.
        let p = cp.preds.lookup("p").unwrap();
        let r = ProgramReport::analyze_with_edb(&cp, &[p]);
        assert!(codes(&r).is_empty());
    }

    #[test]
    fn sl004_undefined_body_predicate_under_closed_world() {
        let cp = compiled("p(X) :- q(X).");
        // Open reading: q is inferred as a database predicate — clean.
        let r = ProgramReport::analyze(&cp);
        assert!(codes(&r).is_empty());
        // Closed world with an empty EDB: q is undefined.
        let r = ProgramReport::analyze_with_edb(&cp, &[]);
        assert_eq!(codes(&r), vec!["SL004"]);
        assert_eq!(r.diagnostics[0].pred.as_deref(), Some("q"));
        assert_eq!(r.diagnostics[0].clause, Some(0));
    }

    #[test]
    fn sl005_duplicate_and_subsumed_clauses() {
        let cp = compiled("p(X) :- q(X).\np(X) :- q(X).");
        let r = ProgramReport::analyze(&cp);
        assert_eq!(codes(&r), vec!["SL005"]);
        assert_eq!(r.diagnostics[0].clause, Some(1));
        assert!(r.diagnostics[0].message.contains("duplicate of clause 0"));
        // Subsumption: the second clause adds a conjunct to an
        // identical-headed body, so it derives nothing new.
        let cp = compiled("p(X) :- q(X).\np(X) :- q(X), r(X).");
        let r = ProgramReport::analyze(&cp);
        assert_eq!(codes(&r), vec!["SL005"]);
        assert!(r.diagnostics[0].message.contains("subsumed by clause 0"));
        // Different heads never subsume.
        let cp = compiled("p(X) :- q(X).\ns(X) :- q(X), r(X).");
        let r = ProgramReport::analyze(&cp);
        assert!(codes(&r).is_empty());
    }

    #[test]
    fn sl006_inconsistent_arity() {
        let cp = compiled("p(X) :- q(X).\nr(X) :- q(X, X).");
        let r = ProgramReport::analyze(&cp);
        assert_eq!(codes(&r), vec!["SL006"]);
        assert_eq!(r.diagnostics[0].pred.as_deref(), Some("q"));
        assert!(r.diagnostics[0].message.contains("1, 2"));
        assert_eq!(r.diagnostics[0].clause, None);
    }

    #[test]
    fn clause_facts_cover_the_paper_examples() {
        // Example 5.1: r is EDB, double is non-recursive constructive,
        // quadruple reads double.
        let cp = compiled("double(X ++ X) :- r(X).\nquadruple(Y ++ Y) :- double(Y).");
        let r = ProgramReport::analyze(&cp);
        assert!(r.strongly_safe);
        assert!(r.clause_facts[0].constructive);
        assert!(r.clause_facts[0].guarded);
        assert!(!r.clause_facts[0].self_recursive);
        assert!(!r.clause_facts[0].ground);
        assert!(r.clause_facts[0].stratum < r.clause_facts[1].stratum);
        // A ground clause and a self-recursive clause.
        let cp = compiled("p(\"a\").\nt(X) :- t(X), r(X).");
        let r = ProgramReport::analyze(&cp);
        assert!(r.clause_facts[0].ground);
        assert!(!r.clause_facts[0].self_recursive);
        assert!(r.clause_facts[1].self_recursive);
    }

    #[test]
    fn render_is_stable_and_lists_strata_topologically() {
        let cp = compiled("a(X) :- r(X).\nb(X ++ X) :- a(X).");
        let r = ProgramReport::analyze(&cp);
        let text = r.render();
        assert!(text.contains("strongly safe"));
        let ra = text.find("stratum 0: r").expect("r is the source stratum");
        let aa = text.find(": a ").expect("a listed");
        let bb = text.find(": b ").expect("b listed");
        assert!(ra < aa && aa < bb);
    }

    #[test]
    fn example_8_1_p1_is_strongly_safe() {
        // P1: mutual recursion between p and q, with construction feeding r
        // from a non-recursive clause — no constructive cycle.
        let r = report(
            "p(X) :- r(X, Y), q(Y).\n\
             q(X) :- r(X, Y), p(Y).\n\
             r(@t1(X), @t2(Y)) :- a(X, Y).",
        );
        assert!(r.strongly_safe, "violations: {:?}", violations(&r));
    }

    #[test]
    fn example_8_1_p2_is_not_strongly_safe() {
        // P2: p(T(X)) :- p(X) — a constructive self-loop.
        let r = report("p(@t(X)) :- p(X).");
        assert!(!r.strongly_safe);
        assert_eq!(violations(&r), [("p", "p")]);
    }

    #[test]
    fn example_8_1_p3_is_not_strongly_safe() {
        // P3: q → r (plain), r → p (constructive), p → q (plain): the
        // constructive edge lies on the 3-cycle.
        let r = report(
            "q(X) :- r(X).\n\
             r(@t(X)) :- p(X).\n\
             p(X) :- q(X).",
        );
        assert!(!r.strongly_safe);
        assert_eq!(violations(&r), [("r", "p")]);
    }

    #[test]
    fn rep2_is_not_strongly_safe_but_rep1_is() {
        // Example 1.5.
        let rep1 = report(
            "rep1(X, X) :- seq(X).\n\
             rep1(X, X[1:N]) :- rep1(X[N+1:end], X[1:N]).",
        );
        assert!(rep1.strongly_safe);
        assert!(rep1.non_constructive);
        assert_eq!(rep1.order, 0);

        let rep2 = report(
            "rep2(X, X) :- seq(X).\n\
             rep2(X ++ Y, Y) :- rep2(X, Y).",
        );
        assert!(!rep2.strongly_safe);
        assert!(!rep2.non_constructive);
    }

    #[test]
    fn example_5_1_stratified_construction_is_strongly_safe() {
        let r = report(
            "double(X ++ X) :- r(X).\n\
             quadruple(X ++ X) :- double(X).",
        );
        assert!(r.strongly_safe);
        // Strata: r at 0, double at 1, quadruple at 2.
        let level = |name| r.condensation.level_of(node(&r, name));
        assert_eq!(level("r"), 0);
        assert_eq!(level("double"), 1);
        assert_eq!(level("quadruple"), 2);
    }

    #[test]
    fn echo_program_is_not_strongly_safe() {
        // Example 1.6.
        let r = report(
            "answer(X, Y) :- rel(X), echo(X, Y).\n\
             echo(\"\", \"\").\n\
             echo(X[1] ++ X[1] ++ Z, W) :- echo(X[2:end], Z).",
        );
        // The recursive constructive clause has head pred echo and body pred
        // echo — a constructive self-loop.
        assert!(!r.strongly_safe);
        assert_eq!(violations(&r), [("echo", "echo")]);
    }

    #[test]
    fn scc_handles_self_loops_and_chains() {
        let r = report(
            "a(X) :- b(X).\n\
             b(X) :- a(X).\n\
             c(X) :- b(X).",
        );
        let comp = |name| r.condensation.comp[node(&r, name) as usize];
        assert_eq!(comp("a"), comp("b"));
        assert_ne!(comp("a"), comp("c"));
        assert!(r.strongly_safe);
    }

    #[test]
    fn non_constructive_program_has_order_zero() {
        let r = report("suffix(X[N:end]) :- r(X).");
        assert!(r.non_constructive);
        assert_eq!(r.order, 0);
        assert!(r.strongly_safe);
    }

    #[test]
    fn concatenation_only_program_has_order_one() {
        let r = report("answer(X ++ Y) :- r(X), r(Y).");
        assert!(!r.non_constructive);
        assert_eq!(r.order, 1);
    }

    #[test]
    fn program_order_is_the_highest_registered_machine_order() {
        let mut e = crate::engine::Engine::new();
        let syms: Vec<_> = "ab".chars().map(|c| e.alphabet.intern_char(c)).collect();
        let copy = seqlog_transducer::library::copy(&mut e.alphabet, &syms);
        let square = seqlog_transducer::library::square(&mut e.alphabet, &syms);
        e.register_transducer("copy", copy);
        e.register_transducer("square", square);
        let order = |e: &mut crate::engine::Engine, src: &str| {
            let p = e.parse_program(src).unwrap();
            e.analyze(&p).unwrap().order
        };
        assert_eq!(order(&mut e, "c(@copy(X)) :- r(X)."), 1);
        assert_eq!(order(&mut e, "s(@square(X)) :- r(X)."), 2);
        assert_eq!(order(&mut e, "s(@square(X) ++ @copy(X)) :- r(X)."), 2);
        // An unregistered machine contributes no order.
        assert_eq!(order(&mut e, "u(@nope(X)) :- r(X)."), 1);
    }
}
