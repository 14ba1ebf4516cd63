//! The surface constraint language and Theorem 1 normalization.
//!
//! A *positive* constraint is `f ⊆ g`; a *negative* one is `f ⊄ g`.
//! Following Boole (paper, Theorem 1), any system of such constraints is
//! equivalent to one equation and a set of disequations:
//!
//! ```text
//! f = 0  ∧  g₁ ≠ 0  ∧ … ∧  gₘ ≠ 0
//! ```
//!
//! The equation collects every positive constraint (`f ⊆ g ↦ f∧¬g = 0`,
//! joined disjunctively); each negative constraint contributes one
//! disequation.

use std::fmt;

use scq_boolean::var::Var;
use scq_boolean::{Bdd, Formula, VarTable};

use crate::simplify::simplify;

/// A single constraint of the surface language.
///
/// The paper's primitive forms are [`Constraint::Subset`] (positive) and
/// [`Constraint::NotSubset`] (negative); the rest are the derived forms
/// listed in the paper's introduction (equality, disequality, strict
/// containment, plus the disjointness/overlap idioms every example uses).
#[derive(Clone, PartialEq, Debug)]
pub enum Constraint {
    /// `f ⊆ g` — positive.
    Subset(Formula, Formula),
    /// `f ⊄ g` — negative.
    NotSubset(Formula, Formula),
    /// `f = g` (both inclusions).
    Eq(Formula, Formula),
    /// `f ≠ g`.
    Neq(Formula, Formula),
    /// `f ⊂ g` — strict containment: `f ⊆ g ∧ f ≠ g` (paper, §1).
    ProperSubset(Formula, Formula),
    /// `f ∩ g = ∅`.
    Disjoint(Formula, Formula),
    /// `f ∩ g ≠ ∅`.
    Overlaps(Formula, Formula),
}

impl Constraint {
    /// The variables mentioned by the constraint.
    pub fn vars(&self) -> std::collections::BTreeSet<Var> {
        let (a, b) = self.operands();
        let mut v = a.vars();
        if let Some(b) = b {
            v.extend(b.vars());
        }
        v
    }

    fn operands(&self) -> (&Formula, Option<&Formula>) {
        match self {
            Constraint::Subset(a, b)
            | Constraint::NotSubset(a, b)
            | Constraint::Eq(a, b)
            | Constraint::Neq(a, b)
            | Constraint::ProperSubset(a, b)
            | Constraint::Disjoint(a, b)
            | Constraint::Overlaps(a, b) => (a, Some(b)),
        }
    }

    /// Pretty-prints with variable names.
    pub fn display<'a>(&'a self, table: &'a VarTable) -> ConstraintDisplay<'a> {
        ConstraintDisplay { c: self, table }
    }
}

/// Pretty-printer for constraints.
pub struct ConstraintDisplay<'a> {
    c: &'a Constraint,
    table: &'a VarTable,
}

impl fmt::Display for ConstraintDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.table;
        match self.c {
            Constraint::Subset(a, b) => write!(f, "{} <= {}", a.display(t), b.display(t)),
            Constraint::NotSubset(a, b) => write!(f, "{} !<= {}", a.display(t), b.display(t)),
            Constraint::Eq(a, b) => write!(f, "{} = {}", a.display(t), b.display(t)),
            Constraint::Neq(a, b) => write!(f, "{} != {}", a.display(t), b.display(t)),
            Constraint::ProperSubset(a, b) => write!(f, "{} < {}", a.display(t), b.display(t)),
            Constraint::Disjoint(a, b) => {
                write!(f, "{} & {} = 0", a.display(t), b.display(t))
            }
            Constraint::Overlaps(a, b) => {
                write!(f, "{} & {} != 0", a.display(t), b.display(t))
            }
        }
    }
}

/// A constraint system: the conjunction of its constraints, plus the
/// name table for its variables.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSystem {
    /// The conjuncts.
    pub constraints: Vec<Constraint>,
    /// Names for the variables appearing in the constraints.
    pub table: VarTable,
}

impl ConstraintSystem {
    /// An empty system (trivially true).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constraint.
    pub fn push(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// All variables mentioned, in index order.
    pub fn vars(&self) -> Vec<Var> {
        let mut set = std::collections::BTreeSet::new();
        for c in &self.constraints {
            set.extend(c.vars());
        }
        set.into_iter().collect()
    }

    /// Theorem 1 normalization of the whole system.
    pub fn normalize(&self) -> NormalSystem {
        normalize(&self.constraints)
    }
}

impl fmt::Display for ConstraintSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}", c.display(&self.table))?;
        }
        Ok(())
    }
}

/// The Theorem 1 normal form `f = 0 ∧ ⋀ᵢ gᵢ ≠ 0`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NormalSystem {
    /// The single equation: `eq = 0`.
    pub eq: Formula,
    /// The disequations: each `g ≠ 0`.
    pub neqs: Vec<Formula>,
}

/// Compile-time verdict about a ground (variable-free) normal system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroundStatus {
    /// Holds in every nondegenerate Boolean algebra.
    Valid,
    /// Fails in every Boolean algebra.
    Unsatisfiable,
}

impl NormalSystem {
    /// The trivially true system (`0 = 0`).
    pub fn trivial() -> Self {
        NormalSystem {
            eq: Formula::Zero,
            neqs: Vec::new(),
        }
    }

    /// All variables mentioned.
    pub fn vars(&self) -> Vec<Var> {
        let mut set = self.eq.vars();
        for g in &self.neqs {
            set.extend(g.vars());
        }
        set.into_iter().collect()
    }

    /// Whether the system is syntactically ground (no variables).
    pub fn is_ground(&self) -> bool {
        self.vars().is_empty()
    }

    /// Semantic status of a ground system: the equation must reduce to
    /// `0` and every disequation to a non-`0` constant (which for ground
    /// formulas means `1`).
    ///
    /// # Panics
    /// If the system still has variables.
    pub fn ground_status(&self) -> GroundStatus {
        assert!(self.is_ground(), "ground_status on a non-ground system");
        let mut bdd = Bdd::new();
        if !bdd.is_zero_formula(&self.eq) {
            return GroundStatus::Unsatisfiable;
        }
        for g in &self.neqs {
            if bdd.is_zero_formula(g) {
                return GroundStatus::Unsatisfiable;
            }
        }
        GroundStatus::Valid
    }

    /// Light semantic cleanup:
    /// * disequations `g ≡ 1` are dropped (always true in nondegenerate
    ///   algebras);
    /// * duplicate disequations (propositional equivalence) are merged;
    /// * the equation and disequations are [`simplify`]-normalized.
    ///
    /// A disequation `g ≡ 0` is kept (it marks the system unsatisfiable
    /// and is reported by [`NormalSystem::obviously_unsat`]).
    pub fn simplified(&self) -> NormalSystem {
        let mut bdd = Bdd::new();
        let eq = simplify(&self.eq);
        let mut neqs: Vec<Formula> = Vec::new();
        for g in &self.neqs {
            let g = simplify(g);
            if g.is_one() {
                continue;
            }
            if !neqs.iter().any(|h| bdd.equivalent(h, &g)) {
                neqs.push(g);
            }
        }
        NormalSystem { eq, neqs }
    }

    /// Whether the system is already propositionally unsatisfiable:
    /// `eq ≡ 1` (so `eq = 0` is impossible) or some `g ≡ 0`.
    pub fn obviously_unsat(&self) -> bool {
        let mut bdd = Bdd::new();
        bdd.is_one_formula(&self.eq) || self.neqs.iter().any(|g| bdd.is_zero_formula(g))
    }

    /// Pretty-prints with variable names.
    pub fn display<'a>(&'a self, table: &'a VarTable) -> NormalDisplay<'a> {
        NormalDisplay { s: self, table }
    }
}

/// Pretty-printer for normal systems.
pub struct NormalDisplay<'a> {
    s: &'a NormalSystem,
    table: &'a VarTable,
}

impl fmt::Display for NormalDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} = 0", self.s.eq.display(self.table))?;
        for g in &self.s.neqs {
            writeln!(f, "{} != 0", g.display(self.table))?;
        }
        Ok(())
    }
}

/// Theorem 1: rewrites a conjunction of constraints into
/// `f = 0 ∧ ⋀ gᵢ ≠ 0`.
pub fn normalize(constraints: &[Constraint]) -> NormalSystem {
    let mut eq = Formula::Zero;
    let mut neqs = Vec::new();
    for c in constraints {
        match c {
            Constraint::Subset(f, g) => {
                eq = Formula::or(eq, Formula::diff(f.clone(), g.clone()));
            }
            Constraint::Eq(f, g) => {
                eq = Formula::or(eq, Formula::xor(f.clone(), g.clone()));
            }
            Constraint::Disjoint(f, g) => {
                eq = Formula::or(eq, Formula::and(f.clone(), g.clone()));
            }
            Constraint::NotSubset(f, g) => {
                neqs.push(Formula::diff(f.clone(), g.clone()));
            }
            Constraint::Neq(f, g) => {
                neqs.push(Formula::xor(f.clone(), g.clone()));
            }
            Constraint::Overlaps(f, g) => {
                neqs.push(Formula::and(f.clone(), g.clone()));
            }
            Constraint::ProperSubset(f, g) => {
                eq = Formula::or(eq, Formula::diff(f.clone(), g.clone()));
                neqs.push(Formula::xor(f.clone(), g.clone()));
            }
        }
    }
    NormalSystem { eq, neqs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scq_algebra::{eval_formula, Assignment, BitsetAlgebra, BooleanAlgebra};

    fn vf(i: u32) -> Formula {
        Formula::var(Var(i))
    }

    /// Semantic check: normalization preserves meaning over a powerset
    /// algebra, exhaustively for 2 variables over 2 ground elements.
    fn constraint_holds(alg: &BitsetAlgebra, c: &Constraint, a: u64, b: u64) -> bool {
        let assign = Assignment::new().with(Var(0), a).with(Var(1), b);
        let ev = |f: &Formula| eval_formula(alg, f, &assign).unwrap();
        match c {
            Constraint::Subset(f, g) => alg.le(&ev(f), &ev(g)),
            Constraint::NotSubset(f, g) => !alg.le(&ev(f), &ev(g)),
            Constraint::Eq(f, g) => alg.eq_elem(&ev(f), &ev(g)),
            Constraint::Neq(f, g) => !alg.eq_elem(&ev(f), &ev(g)),
            Constraint::ProperSubset(f, g) => {
                alg.le(&ev(f), &ev(g)) && !alg.eq_elem(&ev(f), &ev(g))
            }
            Constraint::Disjoint(f, g) => alg.is_zero(&alg.meet(&ev(f), &ev(g))),
            Constraint::Overlaps(f, g) => !alg.is_zero(&alg.meet(&ev(f), &ev(g))),
        }
    }

    fn normal_holds(alg: &BitsetAlgebra, s: &NormalSystem, a: u64, b: u64) -> bool {
        let assign = Assignment::new().with(Var(0), a).with(Var(1), b);
        if !alg.is_zero(&eval_formula(alg, &s.eq, &assign).unwrap()) {
            return false;
        }
        s.neqs
            .iter()
            .all(|g| !alg.is_zero(&eval_formula(alg, g, &assign).unwrap()))
    }

    #[test]
    fn normalization_preserves_semantics() {
        let alg = BitsetAlgebra::new(2);
        let cases = vec![
            Constraint::Subset(vf(0), vf(1)),
            Constraint::NotSubset(vf(0), vf(1)),
            Constraint::Eq(vf(0), Formula::not(vf(1))),
            Constraint::Neq(vf(0), vf(1)),
            Constraint::ProperSubset(vf(0), vf(1)),
            Constraint::Disjoint(vf(0), vf(1)),
            Constraint::Overlaps(vf(0), Formula::or(vf(0), vf(1))),
        ];
        for c in &cases {
            let n = normalize(std::slice::from_ref(c));
            for a in alg.elements() {
                for b in alg.elements() {
                    assert_eq!(
                        constraint_holds(&alg, c, a, b),
                        normal_holds(&alg, &n, a, b),
                        "constraint {c:?} at a={a:b} b={b:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn conjunction_normalizes_jointly() {
        let alg = BitsetAlgebra::new(3);
        let cs = vec![
            Constraint::Subset(vf(0), vf(1)),
            Constraint::Overlaps(vf(0), vf(1)),
            Constraint::Neq(vf(0), vf(1)),
        ];
        let n = normalize(&cs);
        assert_eq!(n.neqs.len(), 2);
        for a in alg.elements() {
            for b in alg.elements() {
                let direct = cs.iter().all(|c| constraint_holds(&alg, c, a, b));
                assert_eq!(direct, normal_holds(&alg, &n, a, b));
            }
        }
    }

    #[test]
    fn proper_subset_is_two_constraints() {
        let n = normalize(&[Constraint::ProperSubset(vf(0), vf(1))]);
        assert!(!n.eq.is_zero());
        assert_eq!(n.neqs.len(), 1);
    }

    #[test]
    fn ground_status() {
        let valid = NormalSystem {
            eq: Formula::Zero,
            neqs: vec![Formula::One],
        };
        assert_eq!(valid.ground_status(), GroundStatus::Valid);
        let bad_eq = NormalSystem {
            eq: Formula::One,
            neqs: vec![],
        };
        assert_eq!(bad_eq.ground_status(), GroundStatus::Unsatisfiable);
        let bad_neq = NormalSystem {
            eq: Formula::Zero,
            neqs: vec![Formula::Zero],
        };
        assert_eq!(bad_neq.ground_status(), GroundStatus::Unsatisfiable);
    }

    #[test]
    #[should_panic(expected = "non-ground")]
    fn ground_status_requires_ground() {
        let s = NormalSystem {
            eq: vf(0),
            neqs: vec![],
        };
        s.ground_status();
    }

    #[test]
    fn simplified_drops_trivial_neqs() {
        let s = NormalSystem {
            eq: Formula::and(vf(0), Formula::Zero),
            neqs: vec![
                Formula::One,
                Formula::or(vf(0), Formula::not(vf(0))), // ≡ 1
                vf(1),
                Formula::or(vf(1), vf(1)), // duplicate of x1
            ],
        };
        let t = s.simplified();
        assert_eq!(t.eq, Formula::Zero);
        assert_eq!(t.neqs, vec![vf(1)]);
    }

    #[test]
    fn obviously_unsat_detection() {
        let bad = NormalSystem {
            eq: Formula::or(vf(0), Formula::not(vf(0))),
            neqs: vec![],
        };
        assert!(bad.obviously_unsat());
        let fine = NormalSystem {
            eq: vf(0),
            neqs: vec![vf(1)],
        };
        assert!(!fine.obviously_unsat());
        let bad_neq = NormalSystem {
            eq: Formula::Zero,
            neqs: vec![Formula::and(vf(0), Formula::not(vf(0)))],
        };
        assert!(bad_neq.obviously_unsat());
    }

    #[test]
    fn system_vars_and_display() {
        let mut sys = ConstraintSystem::new();
        let a = sys.table.intern("A");
        let b = sys.table.intern("B");
        sys.push(Constraint::Subset(Formula::var(a), Formula::var(b)));
        sys.push(Constraint::Overlaps(Formula::var(a), Formula::var(b)));
        assert_eq!(sys.vars(), vec![a, b]);
        let printed = sys.to_string();
        assert!(printed.contains("A <= B"));
        assert!(printed.contains("A & B != 0"));
    }
}
