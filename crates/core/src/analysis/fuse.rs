//! Machine-level analysis and compile-time fusion of transducer chains.
//!
//! Walks every clause's head terms for *chains* of 1-input transducer
//! calls (`@outer(@inner(X))` and deeper) and the registry's unary chain
//! [`Network`]s, and collapses each chain into one trimmed, determinized,
//! minimized machine via the transducer algebra
//! ([`seqlog_transducer::algebra`]). Evaluation then runs one
//! deterministic pass per derived tuple instead of a chain of machine
//! executions (and one interning round-trip instead of one per stage).
//!
//! The pass is a *pure rewrite*: the fused machine computes exactly the
//! composed sequence function, so the evaluation extent is bit-for-bit
//! identical with fusion on or off (`EvalConfig::danger_disable_fusion` is
//! the mutation hook the differential fuzz suite uses to prove it).
//!
//! Verdicts surface as lints:
//!
//! * `SL007` (error) — a head term calls a registered relation that is not
//!   functional: the call's value is ill-defined;
//! * `SL008` (warning) — a called machine has dead states, with trim
//!   counts;
//! * `SL009` (info) — a fusable chain, with the fused machine size and
//!   whether fusion was applied or declined (with the reason, e.g. the
//!   determinization blow-up cap).

use super::lint::{Diagnostic, LintCode};
use crate::compile::{CSeq, CompiledProgram};
use crate::registry::TransducerRegistry;
use seqlog_sequence::FxHashMap;
use seqlog_transducer::algebra::{AlgebraError, DeterminizeCaps};
use seqlog_transducer::Transducer;

/// Caps governing when fusion is declined rather than attempted.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuseLimits {
    /// Determinization blow-up caps (subset count, delay-buffer length).
    pub det_caps: DeterminizeCaps,
}

/// One fusion decision, reported in
/// [`crate::analysis::ProgramReport::fusion`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusionDecision {
    /// 0-based clause index for head-term chains; `None` for registered
    /// networks.
    pub clause: Option<usize>,
    /// Machine names in application order (innermost/first machine first).
    pub chain: Vec<String>,
    /// Name the fused machine is (or would be) registered under.
    pub fused_name: String,
    /// Whether the chain was actually collapsed.
    pub applied: bool,
    /// Why fusion was declined (empty when applied).
    pub reason: String,
    /// Total states across the chain's machines.
    pub chain_states: usize,
    /// Total transitions across the chain's machines.
    pub chain_transitions: usize,
    /// States of the fused machine (0 when declined).
    pub fused_states: usize,
    /// Transitions of the fused machine (0 when declined).
    pub fused_transitions: usize,
}

impl FusionDecision {
    /// Render the chain as `@a;@b;@c` (application order).
    pub fn chain_display(&self) -> String {
        self.chain
            .iter()
            .map(|n| format!("@{n}"))
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// The result of [`fuse_program`].
#[derive(Debug, Default)]
pub struct FusePass {
    /// Machine-level diagnostics (`SL007`–`SL009`).
    pub diagnostics: Vec<Diagnostic>,
    /// All fusion decisions (applied and declined).
    pub decisions: Vec<FusionDecision>,
    /// When at least one chain fused: the rewritten program plus the fused
    /// machines to register (under their [`FusionDecision::fused_name`]s).
    pub fused: Option<(CompiledProgram, Vec<(String, Transducer)>)>,
}

/// Fuse a chain of 1-input order-1 machines (application order) into one
/// trimmed, determinized, minimized runtime machine named `name`.
pub fn fuse_chain(
    name: &str,
    machines: &[&Transducer],
    caps: &DeterminizeCaps,
) -> Result<Transducer, AlgebraError> {
    assert!(!machines.is_empty());
    let end = machines[0].end_marker;
    let mut fst = machines[0].algebra()?;
    for t in &machines[1..] {
        if t.end_marker != end {
            return Err(AlgebraError::Unsupported {
                name: t.name.clone(),
                reason: "machines in the chain use different end markers".into(),
            });
        }
        fst = fst.compose(&t.algebra()?);
    }
    let min = fst.trim().determinize(caps)?.minimize()?;
    min.to_transducer(name, end)
}

/// Collect every machine name referenced by transducer terms in `term`.
pub(super) fn collect_refs(term: &CSeq, out: &mut Vec<String>) {
    match term {
        CSeq::Const(_) | CSeq::Var(_) | CSeq::Indexed { .. } => {}
        CSeq::Concat(a, b) => {
            collect_refs(a, out);
            collect_refs(b, out);
        }
        CSeq::Transducer { name, args } => {
            out.push(name.clone());
            for a in args {
                collect_refs(a, out);
            }
        }
    }
}

/// Collect maximal nesting chains of unary transducer calls (≥ 2 machines),
/// in application order (innermost call first).
fn collect_chains(term: &CSeq, out: &mut Vec<Vec<String>>) {
    match term {
        CSeq::Const(_) | CSeq::Var(_) | CSeq::Indexed { .. } => {}
        CSeq::Concat(a, b) => {
            collect_chains(a, out);
            collect_chains(b, out);
        }
        CSeq::Transducer { name, args } => {
            let mut names = vec![name.clone()];
            let mut base: &[CSeq] = args;
            while base.len() == 1 {
                if let CSeq::Transducer { name: n, args: a } = &base[0] {
                    names.push(n.clone());
                    base = a;
                } else {
                    break;
                }
            }
            if names.len() >= 2 {
                names.reverse();
                out.push(names);
            }
            for a in base {
                collect_chains(a, out);
            }
        }
    }
}

/// Rewrite `term`, replacing every chain found in `plan` (keyed by
/// application-order names) with a single call to the fused machine.
fn rewrite(term: &CSeq, plan: &FxHashMap<Vec<String>, String>) -> CSeq {
    match term {
        CSeq::Const(_) | CSeq::Var(_) | CSeq::Indexed { .. } => term.clone(),
        CSeq::Concat(a, b) => CSeq::Concat(Box::new(rewrite(a, plan)), Box::new(rewrite(b, plan))),
        CSeq::Transducer { name, args } => {
            let mut names = vec![name.clone()];
            let mut base: &[CSeq] = args;
            while base.len() == 1 {
                if let CSeq::Transducer { name: n, args: a } = &base[0] {
                    names.push(n.clone());
                    base = a;
                } else {
                    break;
                }
            }
            names.reverse();
            if let Some(fused) = plan.get(&names) {
                return CSeq::Transducer {
                    name: fused.clone(),
                    args: base.iter().map(|a| rewrite(a, plan)).collect(),
                };
            }
            CSeq::Transducer {
                name: name.clone(),
                args: args.iter().map(|a| rewrite(a, plan)).collect(),
            }
        }
    }
}

/// The synthesized registry name for a fused chain.
fn fused_name(chain: &[String]) -> String {
    format!("fused${}", chain.join("$"))
}

/// Try to fuse one chain against the registry; returns either the fused
/// machine with its sizes, or the decline reason.
fn try_fuse(
    chain: &[String],
    registry: &TransducerRegistry,
    limits: &FuseLimits,
) -> (FusionDecision, Option<Transducer>) {
    let mut decision = FusionDecision {
        clause: None,
        chain: chain.to_vec(),
        fused_name: fused_name(chain),
        applied: false,
        reason: String::new(),
        chain_states: 0,
        chain_transitions: 0,
        fused_states: 0,
        fused_transitions: 0,
    };
    let mut machines: Vec<&Transducer> = Vec::with_capacity(chain.len());
    for name in chain {
        match registry.get(name) {
            Some(t) => machines.push(t),
            None => {
                decision.reason = format!("machine `{name}` is not registered");
                return (decision, None);
            }
        }
    }
    decision.chain_states = machines.iter().map(|t| t.num_states()).sum();
    decision.chain_transitions = machines.iter().map(|t| t.num_transitions()).sum();
    for t in &machines {
        if let Some(f) = registry.fst(&t.name) {
            if !f.is_functional() {
                decision.reason = format!("machine `{}` is not functional", t.name);
                return (decision, None);
            }
        }
    }
    match fuse_chain(&decision.fused_name.clone(), &machines, &limits.det_caps) {
        Ok(t) => {
            decision.fused_states = t.num_states();
            decision.fused_transitions = t.num_transitions();
            decision.applied = true;
            (decision, Some(t))
        }
        Err(e) => {
            decision.reason = e.to_string();
            (decision, None)
        }
    }
}

/// Analyze (and, where possible, fuse) the transducer machinery of a
/// compiled program against a registry.
///
/// Always produces diagnostics and decisions; produces a rewritten program
/// only when at least one head chain fused. Callers gate *applying* the
/// rewrite on [`crate::eval::EvalConfig::danger_disable_fusion`]; the
/// analysis itself is unconditional so reports do not depend on evaluation
/// configuration.
pub fn fuse_program(
    program: &CompiledProgram,
    registry: &TransducerRegistry,
    limits: &FuseLimits,
) -> FusePass {
    let mut pass = FusePass::default();
    let has_transducer_heads = program
        .clauses
        .iter()
        .any(|c| c.head.args.iter().any(has_transducer));
    if !has_transducer_heads && registry.network_names().next().is_none() {
        return pass;
    }

    // Per-clause machine references (SL007 / SL008) and chains (SL009).
    let mut referenced: Vec<(usize, String)> = Vec::new();
    let mut clause_chains: Vec<(usize, Vec<String>)> = Vec::new();
    for (ci, clause) in program.clauses.iter().enumerate() {
        let mut refs = Vec::new();
        let mut chains = Vec::new();
        for arg in &clause.head.args {
            collect_refs(arg, &mut refs);
            collect_chains(arg, &mut chains);
        }
        refs.sort();
        refs.dedup();
        referenced.extend(refs.into_iter().map(|n| (ci, n)));
        clause_chains.extend(chains.into_iter().map(|c| (ci, c)));
    }

    // SL007: per (clause, machine) calls of registered non-functional
    // relations.
    for (ci, name) in &referenced {
        if let Some(f) = registry.fst(name) {
            if !f.is_functional() {
                pass.diagnostics.push(Diagnostic::new(
                    LintCode::NonFunctionalTransducerCall,
                    Some(*ci),
                    Some(name.clone()),
                    format!(
                        "head term calls `@{name}`, which is not functional: it can emit \
                         two distinct outputs for one input, so the call's value is \
                         ill-defined"
                    ),
                ));
            }
        }
    }

    // SL008: dead states, once per distinct referenced machine.
    let mut distinct: Vec<&String> = referenced.iter().map(|(_, n)| n).collect();
    distinct.sort();
    distinct.dedup();
    for name in distinct {
        let fst = match registry.fst(name) {
            Some(f) => Some(f.clone()),
            None => registry.get(name).and_then(|t| t.algebra().ok()),
        };
        let Some(fst) = fst else { continue };
        let trimmed = fst.trim();
        if trimmed.num_states() < fst.num_states() {
            pass.diagnostics.push(Diagnostic::new(
                LintCode::DeadTransducerStates,
                None,
                Some(name.clone()),
                format!(
                    "machine `@{name}` has {} dead state(s) (trim: {} -> {} states, \
                     {} -> {} transitions)",
                    fst.num_states() - trimmed.num_states(),
                    fst.num_states(),
                    trimmed.num_states(),
                    fst.num_arcs(),
                    trimmed.num_arcs(),
                ),
            ));
        }
    }

    // SL009: fuse each distinct chain once, report per occurrence.
    let mut fused_machines: Vec<(String, Transducer)> = Vec::new();
    let mut plan: FxHashMap<Vec<String>, String> = FxHashMap::default();
    let mut tried: FxHashMap<Vec<String>, FusionDecision> = FxHashMap::default();
    for (ci, chain) in &clause_chains {
        let decision = match tried.get(chain) {
            Some(d) => d.clone(),
            None => {
                let (d, machine) = try_fuse(chain, registry, limits);
                if let Some(m) = machine {
                    plan.insert(chain.clone(), d.fused_name.clone());
                    fused_machines.push((d.fused_name.clone(), m));
                }
                tried.insert(chain.clone(), d.clone());
                d
            }
        };
        let message = if decision.applied {
            format!(
                "transducer chain {} fused into `@{}`: {} states / {} transitions \
                 -> {} states / {} transitions (applied)",
                decision.chain_display(),
                decision.fused_name,
                decision.chain_states,
                decision.chain_transitions,
                decision.fused_states,
                decision.fused_transitions,
            )
        } else {
            format!(
                "transducer chain {} is fusable but fusion was declined: {}",
                decision.chain_display(),
                decision.reason,
            )
        };
        pass.diagnostics.push(Diagnostic::new(
            LintCode::FusableTransducerChain,
            Some(*ci),
            None,
            message,
        ));
        pass.decisions.push(FusionDecision {
            clause: Some(*ci),
            ..decision
        });
    }

    // Registered networks: unary chains were fused at registration time
    // ([`TransducerRegistry::register_network`]); report the decision here
    // so `ProgramReport` covers them too.
    let mut network_names: Vec<&str> = registry.network_names().collect();
    network_names.sort_unstable();
    for name in network_names {
        let net = registry.network(name).expect("listed name resolves");
        let Some(machines) = net.chain_machines() else {
            pass.decisions.push(FusionDecision {
                clause: None,
                chain: Vec::new(),
                fused_name: name.to_string(),
                applied: false,
                reason: format!(
                    "network `{name}` is not a unary chain of 1-input machines \
                     ({} inputs, {} machines)",
                    net.num_inputs(),
                    net.num_machines()
                ),
                chain_states: 0,
                chain_transitions: 0,
                fused_states: 0,
                fused_transitions: 0,
            });
            continue;
        };
        let chain: Vec<String> = machines.iter().map(|t| t.name.clone()).collect();
        let cached = registry.get(name);
        let applied = cached.is_some();
        pass.decisions.push(FusionDecision {
            clause: None,
            chain,
            fused_name: name.to_string(),
            applied,
            reason: if applied {
                String::new()
            } else {
                match fuse_chain(name, &machines, &limits.det_caps) {
                    Ok(_) => "fused machine was not cached in the registry".to_string(),
                    Err(e) => e.to_string(),
                }
            },
            chain_states: machines.iter().map(|t| t.num_states()).sum(),
            chain_transitions: machines.iter().map(|t| t.num_transitions()).sum(),
            fused_states: cached.map_or(0, Transducer::num_states),
            fused_transitions: cached.map_or(0, Transducer::num_transitions),
        });
    }

    if !plan.is_empty() {
        let mut rewritten = program.clone();
        for clause in &mut rewritten.clauses {
            for arg in &mut clause.head.args {
                *arg = rewrite(arg, &plan);
            }
        }
        pass.fused = Some((rewritten, fused_machines));
    }
    pass
}

/// Does the term contain a transducer call?
fn has_transducer(term: &CSeq) -> bool {
    match term {
        CSeq::Const(_) | CSeq::Var(_) | CSeq::Indexed { .. } => false,
        CSeq::Concat(a, b) => has_transducer(a) || has_transducer(b),
        CSeq::Transducer { .. } => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::lint::Severity;
    use crate::compile::compile;
    use crate::parser::parse_program;
    use seqlog_sequence::{Alphabet, SeqStore};
    use seqlog_transducer::{exec, library, Fst};

    fn compiled(src: &str, a: &mut Alphabet) -> CompiledProgram {
        let mut st = SeqStore::new();
        let p = parse_program(src, a, &mut st).unwrap();
        compile(&p).unwrap()
    }

    fn codes(pass: &FusePass) -> Vec<&'static str> {
        pass.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn sl007_flags_non_functional_relation_calls() {
        let mut a = Alphabet::new();
        let x = a.intern_char('a');
        let y = a.intern_char('b');
        let mut rel = Fst::new("rel", 1);
        rel.add_arc(0, x, vec![x], 0);
        rel.add_arc(0, x, vec![y], 0);
        rel.set_final(0, Vec::new());
        rel.normalize();
        assert!(!rel.is_functional());
        let end = a.end_marker();
        let mut reg = TransducerRegistry::new();
        reg.register_fst("rel", rel, end);
        let cp = compiled("p(@rel(X)) :- r(X).", &mut a);
        let pass = fuse_program(&cp, &reg, &FuseLimits::default());
        assert_eq!(codes(&pass), ["SL007"]);
        let d = &pass.diagnostics[0];
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.clause, Some(0));
        assert_eq!(d.pred.as_deref(), Some("rel"));
        assert!(d.message.contains("not functional"));
        assert!(pass.fused.is_none());
    }

    #[test]
    fn sl008_reports_dead_states_with_trim_counts() {
        let mut a = Alphabet::new();
        let x = a.intern_char('a');
        let mut m = Fst::new("m", 3);
        m.add_arc(0, x, vec![x], 0);
        // State 1 is unreachable; state 2 is reachable but cannot finish.
        m.add_arc(1, x, vec![x], 1);
        m.add_arc(0, x, vec![x], 2);
        m.set_final(0, Vec::new());
        m.normalize();
        let end = a.end_marker();
        let mut reg = TransducerRegistry::new();
        reg.register_fst("m", m, end);
        let cp = compiled("p(@m(X)) :- r(X).", &mut a);
        let pass = fuse_program(&cp, &reg, &FuseLimits::default());
        assert_eq!(codes(&pass), ["SL008"]);
        let d = &pass.diagnostics[0];
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.pred.as_deref(), Some("m"));
        assert!(d.message.contains("2 dead state(s)"), "{}", d.message);
        assert!(d.message.contains("3 -> 1 states"), "{}", d.message);
    }

    #[test]
    fn sl009_fuses_unary_chains_and_rewrites_heads() {
        let mut a = Alphabet::new();
        let s: Vec<_> = "ab".chars().map(|c| a.intern_char(c)).collect();
        let f = library::mapper(&mut a, "f", &[(s[0], s[1]), (s[1], s[0])]);
        let g = library::mapper(&mut a, "g", &[(s[0], s[0]), (s[1], s[0])]);
        let mut reg = TransducerRegistry::new();
        reg.register("f", f);
        reg.register("g", g);
        let cp = compiled("p(@f(@g(X))) :- r(X).", &mut a);
        let pass = fuse_program(&cp, &reg, &FuseLimits::default());
        assert_eq!(codes(&pass), ["SL009"]);
        let d = &pass.diagnostics[0];
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("(applied)"), "{}", d.message);
        assert_eq!(pass.decisions.len(), 1);
        let dec = &pass.decisions[0];
        assert!(dec.applied);
        assert_eq!(dec.clause, Some(0));
        assert_eq!(dec.chain, ["g", "f"]);
        assert_eq!(dec.fused_name, "fused$g$f");
        let (rewritten, machines) = pass.fused.expect("chain fused");
        assert_eq!(machines.len(), 1);
        assert_eq!(machines[0].0, "fused$g$f");
        match &rewritten.clauses[0].head.args[0] {
            CSeq::Transducer { name, args } => {
                assert_eq!(name, "fused$g$f");
                assert!(matches!(args.as_slice(), [CSeq::Var(_)]));
            }
            other => panic!("head not rewritten: {other:?}"),
        }
        // The fused machine computes g then f: a -> g a -> f b.
        let out = exec::run_to_vec(&machines[0].1, &[&[s[0], s[0]]]).unwrap();
        assert_eq!(out, vec![s[1], s[1]]);
    }

    #[test]
    fn sl009_declines_unsupported_chains_with_reason() {
        let mut a = Alphabet::new();
        let s: Vec<_> = "ab".chars().map(|c| a.intern_char(c)).collect();
        let f = library::mapper(&mut a, "f", &[(s[0], s[1]), (s[1], s[0])]);
        let sq = library::square(&mut a, &s);
        let mut reg = TransducerRegistry::new();
        reg.register("f", f);
        reg.register("sq", sq);
        let cp = compiled("p(@sq(@f(X))) :- r(X).", &mut a);
        let pass = fuse_program(&cp, &reg, &FuseLimits::default());
        assert_eq!(codes(&pass), ["SL009"]);
        let d = &pass.diagnostics[0];
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("declined"), "{}", d.message);
        assert!(!pass.decisions[0].applied);
        assert!(!pass.decisions[0].reason.is_empty());
        assert!(pass.fused.is_none());
    }

    #[test]
    fn registered_networks_fuse_at_registration_and_are_reported() {
        let mut a = Alphabet::new();
        let s: Vec<_> = "ab".chars().map(|c| a.intern_char(c)).collect();
        let f = library::mapper(&mut a, "f", &[(s[0], s[1]), (s[1], s[0])]);
        let g = library::mapper(&mut a, "g", &[(s[0], s[0]), (s[1], s[0])]);
        let net = seqlog_transducer::Network::chain("pipe", vec![f, g]);
        let mut reg = TransducerRegistry::new();
        reg.register_network(net);
        // The fused machine is callable under the network's name.
        let fused = reg.get("pipe").expect("network fused at registration");
        // f then g: a -> f b -> g a.
        let out = exec::run_to_vec(fused, &[&[s[0]]]).unwrap();
        assert_eq!(out, vec![s[0]]);
        // The pass reports the network decision even with no program chains.
        let cp = compiled("p(X) :- r(X).", &mut a);
        let pass = fuse_program(&cp, &reg, &FuseLimits::default());
        assert_eq!(pass.decisions.len(), 1);
        let dec = &pass.decisions[0];
        assert_eq!(dec.clause, None);
        assert!(dec.applied);
        assert_eq!(dec.fused_name, "pipe");
        assert_eq!(dec.chain, ["f", "g"]);
    }

    #[test]
    fn evaluation_extent_is_identical_with_fusion_on_and_off() {
        use crate::database::Database;
        use crate::engine::Engine;
        use crate::eval::EvalConfig;
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let s: Vec<_> = "ab".chars().map(|c| a.intern_char(c)).collect();
        let f = library::mapper(&mut a, "f", &[(s[0], s[1]), (s[1], s[0])]);
        let g = library::mapper(&mut a, "g", &[(s[0], s[0]), (s[1], s[0])]);
        let mut reg = TransducerRegistry::new();
        reg.register("f", f);
        reg.register("g", g);
        let p = parse_program("p(@f(@g(X))) :- r(X).", &mut a, &mut st).unwrap();
        let mut db = Database::new();
        for w in ["a", "b", "ab", "ba", "abba"] {
            let id = st.intern(&w.chars().map(|c| a.intern_char(c)).collect::<Vec<_>>());
            db.add("r", vec![id]);
        }
        let engine = || Engine {
            alphabet: a.clone(),
            store: st.clone(),
            registry: reg.clone(),
        };
        let mut e_on = engine();
        let on = e_on.evaluate(&p, &db).unwrap();
        let mut e_off = engine();
        let cfg = EvalConfig {
            danger_disable_fusion: true,
            ..EvalConfig::default()
        };
        let off = e_off.evaluate_with(&p, &db, &cfg).unwrap();
        // Insertion order (not just set equality) must match: fusion is a
        // pure rewrite, so derivation order is preserved too.
        assert_eq!(
            e_on.rendered_tuples(&on, "p"),
            e_off.rendered_tuples(&off, "p")
        );
        let mut sorted = e_on.rendered_tuples(&on, "p");
        sorted.sort();
        assert_eq!(sorted, [["b"], ["bb"], ["bbbb"]]);
    }
}
