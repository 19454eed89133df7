//! The reference monitor (§3, \[19\] in the paper).
//!
//! Given a [`Policy`], its [`PolicyParams`], an [`Invocation`] and a
//! [`StateView`], the monitor decides whether the invocation may execute:
//! it is allowed iff *some* rule's pattern matches it and that rule's
//! condition is satisfied. Anything else is denied (fail-safe defaults).

use crate::analysis::{self, Diagnostic, Severity};
use crate::ast::{Policy, PolicyParams};
use crate::eval::{eval_expr, match_invocation, Env, EvalCtx, StateView};
use crate::invocation::Invocation;
use crate::span::PolicySpans;
use std::fmt;

/// The monitor's verdict on one invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The invocation may execute; `rule` names the rule that granted it.
    Allowed {
        /// Name of the granting rule.
        rule: String,
    },
    /// The invocation is denied.
    Denied {
        /// Per-rule diagnostics: `(rule name, why it did not grant)`.
        /// Empty when no rule's pattern matched the invocation at all.
        attempts: Vec<(String, String)>,
    },
}

impl Decision {
    /// `true` iff the invocation was allowed.
    pub fn is_allowed(&self) -> bool {
        matches!(self, Decision::Allowed { .. })
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Allowed { rule } => write!(f, "allowed by rule {rule}"),
            Decision::Denied { attempts } if attempts.is_empty() => {
                write!(f, "denied: no rule matched the invocation")
            }
            Decision::Denied { attempts } => {
                write!(f, "denied:")?;
                for (rule, why) in attempts {
                    write!(f, " [{rule}: {why}]")?;
                }
                Ok(())
            }
        }
    }
}

/// Error raised when a policy and its parameters are inconsistent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissingParamError {
    /// The declared-but-unset parameter.
    pub param: String,
    /// The policy declaring it.
    pub policy: String,
}

impl fmt::Display for MissingParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy `{}` declares parameter `{}` but no value was supplied",
            self.policy, self.param
        )
    }
}

impl std::error::Error for MissingParamError {}

/// Why a policy could not be loaded into a [`ReferenceMonitor`].
#[derive(Clone, Debug, PartialEq)]
pub enum PolicyError {
    /// The policy declares a parameter with no supplied value.
    MissingParam(MissingParamError),
    /// Static analysis ([`analyze`](crate::analyze)) found
    /// [`Severity::Error`] diagnostics — the policy would misbehave at
    /// runtime (guaranteed evaluation errors → spurious denials).
    Rejected {
        /// Name of the rejected policy.
        policy: String,
        /// All diagnostics, errors first.
        diagnostics: Vec<Diagnostic>,
    },
}

impl PolicyError {
    /// The diagnostics behind a [`PolicyError::Rejected`], empty otherwise.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        match self {
            PolicyError::MissingParam(_) => &[],
            PolicyError::Rejected { diagnostics, .. } => diagnostics,
        }
    }
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::MissingParam(e) => e.fmt(f),
            PolicyError::Rejected {
                policy,
                diagnostics,
            } => {
                let errors: Vec<String> = diagnostics
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .map(Diagnostic::to_string)
                    .collect();
                write!(
                    f,
                    "policy `{policy}` rejected by static analysis ({} error{}): {}",
                    errors.len(),
                    if errors.len() == 1 { "" } else { "s" },
                    errors.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for PolicyError {}

impl From<MissingParamError> for PolicyError {
    fn from(e: MissingParamError) -> Self {
        PolicyError::MissingParam(e)
    }
}

/// A reference monitor bound to one policy and one parameter valuation.
///
/// # Examples
///
/// ```
/// use peats_policy::{Invocation, OpCall, Policy, PolicyParams, ReferenceMonitor};
/// use peats_policy::eval::EmptyState;
/// use peats_tuplespace::tuple;
///
/// let monitor = ReferenceMonitor::new(Policy::allow_all(), PolicyParams::new())?;
/// let inv = Invocation::new(1, OpCall::out(tuple!["A"]));
/// assert!(monitor.decide(&inv, &EmptyState).is_allowed());
/// # Ok::<(), peats_policy::PolicyError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ReferenceMonitor {
    policy: Policy,
    params: PolicyParams,
    warnings: Vec<Diagnostic>,
}

impl ReferenceMonitor {
    /// Binds `policy` to `params`, statically analyzing the policy first.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::MissingParam`] if the policy declares a
    /// parameter with no value in `params`, and [`PolicyError::Rejected`]
    /// if static analysis finds [`Severity::Error`] diagnostics (unbound
    /// variables, type errors, …). Non-fatal diagnostics are retained and
    /// exposed via [`warnings`](Self::warnings).
    pub fn new(policy: Policy, params: PolicyParams) -> Result<Self, PolicyError> {
        for p in &policy.params {
            if params.get(p).is_none() {
                return Err(MissingParamError {
                    param: p.clone(),
                    policy: policy.name.clone(),
                }
                .into());
            }
        }
        let diagnostics =
            analysis::analyze_with(&policy, &PolicySpans::unknown(&policy), Some(&params));
        if analysis::has_errors(&diagnostics) {
            return Err(PolicyError::Rejected {
                policy: policy.name.clone(),
                diagnostics,
            });
        }
        Ok(ReferenceMonitor {
            policy,
            params,
            warnings: diagnostics,
        })
    }

    /// Non-fatal diagnostics (warnings and notes) the static analyzer
    /// produced for the loaded policy.
    pub fn warnings(&self) -> &[Diagnostic] {
        &self.warnings
    }

    /// The guarded policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The bound parameters.
    pub fn params(&self) -> &PolicyParams {
        &self.params
    }

    /// Decides whether `inv` may execute against `state`.
    ///
    /// Evaluation errors inside a rule condition (type errors, unbound
    /// variables) are treated as a failed condition — never as a grant —
    /// and reported in the denial diagnostics.
    pub fn decide(&self, inv: &Invocation<'_>, state: &dyn StateView) -> Decision {
        match self.first_granting_rule(inv, state) {
            Ok(rule) => Decision::Allowed {
                rule: rule.to_owned(),
            },
            Err(attempts) => Decision::Denied { attempts },
        }
    }

    /// Like [`decide`](Self::decide), but the grant carries no diagnostics:
    /// `Ok(())` is returned without cloning the granting rule's name, so the
    /// allow path — the common case on every guarded operation — does not
    /// allocate. Denials still carry the full per-rule diagnostics.
    pub fn permits(&self, inv: &Invocation<'_>, state: &dyn StateView) -> Result<(), Decision> {
        self.first_granting_rule(inv, state)
            .map(|_| ())
            .map_err(|attempts| Decision::Denied { attempts })
    }

    /// Name of the first rule granting `inv`, or the denial diagnostics.
    fn first_granting_rule(
        &self,
        inv: &Invocation<'_>,
        state: &dyn StateView,
    ) -> Result<&str, Vec<(String, String)>> {
        let mut attempts = Vec::new();
        for rule in &self.policy.rules {
            let Some(env) = match_invocation(&rule.pattern, inv) else {
                continue;
            };
            let ctx = EvalCtx {
                invoker: inv.invoker as i64,
                env: &env,
                params: &self.params,
                state,
            };
            match eval_expr(&rule.condition, &ctx, &Env::new()) {
                Ok(true) => return Ok(&rule.name),
                Ok(false) => attempts.push((rule.name.clone(), "condition is false".to_owned())),
                Err(e) => attempts.push((rule.name.clone(), e.to_string())),
            }
        }
        Err(attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ArgPattern, CmpOp, Expr, FieldPattern, InvocationPattern, Rule, Term};
    use crate::eval::EmptyState;
    use crate::invocation::OpCall;
    use peats_tuplespace::{template, tuple, Value};

    fn one_rule_policy(rule: Rule) -> Policy {
        Policy::new("test", vec![], vec![rule])
    }

    #[test]
    fn no_matching_rule_is_denied() {
        let p = one_rule_policy(Rule::new(
            "Rout",
            InvocationPattern::Out(ArgPattern::Any),
            Expr::True,
        ));
        let m = ReferenceMonitor::new(p, PolicyParams::new()).unwrap();
        let inv = Invocation::new(0, OpCall::inp(template![_]));
        let d = m.decide(&inv, &EmptyState);
        assert!(!d.is_allowed());
        assert_eq!(d, Decision::Denied { attempts: vec![] });
    }

    #[test]
    fn failing_condition_is_denied_with_diagnostics() {
        let p = one_rule_policy(Rule::new(
            "Rout",
            InvocationPattern::Out(ArgPattern::fields(vec![FieldPattern::Bind("v".into())])),
            Expr::cmp(CmpOp::Gt, Term::var("v"), Term::val(10)),
        ));
        let m = ReferenceMonitor::new(p, PolicyParams::new()).unwrap();
        let d = m.decide(&Invocation::new(0, OpCall::out(tuple![5])), &EmptyState);
        match d {
            Decision::Denied { attempts } => {
                assert_eq!(attempts.len(), 1);
                assert_eq!(attempts[0].0, "Rout");
            }
            other => panic!("expected denial, got {other:?}"),
        }
        let d2 = m.decide(&Invocation::new(0, OpCall::out(tuple![11])), &EmptyState);
        assert_eq!(
            d2,
            Decision::Allowed {
                rule: "Rout".into()
            }
        );
    }

    #[test]
    fn later_rule_can_grant_after_earlier_fails() {
        let p = Policy::new(
            "test",
            vec![],
            vec![
                Rule::new("R1", InvocationPattern::Out(ArgPattern::Any), Expr::False),
                Rule::new("R2", InvocationPattern::Out(ArgPattern::Any), Expr::True),
            ],
        );
        let m = ReferenceMonitor::new(p, PolicyParams::new()).unwrap();
        let d = m.decide(&Invocation::new(0, OpCall::out(tuple![1])), &EmptyState);
        assert_eq!(d, Decision::Allowed { rule: "R2".into() });
    }

    #[test]
    fn eval_error_is_fail_safe() {
        // `v` is entry-bound, so the comparison passes static analysis —
        // the type error only exists for invocations carrying a non-int
        // field, and surfaces at runtime as a fail-safe denial.
        let p = one_rule_policy(Rule::new(
            "Rbad",
            InvocationPattern::Out(ArgPattern::fields(vec![FieldPattern::Bind("v".into())])),
            Expr::cmp(CmpOp::Lt, Term::var("v"), Term::val(1)),
        ));
        let m = ReferenceMonitor::new(p, PolicyParams::new()).unwrap();
        let d = m.decide(&Invocation::new(0, OpCall::out(tuple!["x"])), &EmptyState);
        assert!(!d.is_allowed());
        let text = format!("{d}");
        assert!(text.contains("type mismatch"), "diagnostic missing: {text}");
    }

    #[test]
    fn missing_param_is_rejected_at_construction() {
        let p = Policy::new(
            "needs_t",
            vec!["t".into()],
            vec![Rule::new(
                "R",
                InvocationPattern::Out(ArgPattern::Any),
                Expr::True,
            )],
        );
        let err = ReferenceMonitor::new(p, PolicyParams::new()).unwrap_err();
        match err {
            PolicyError::MissingParam(e) => assert_eq!(e.param, "t"),
            other => panic!("expected missing-param error, got {other:?}"),
        }
    }

    #[test]
    fn statically_broken_policy_is_rejected_at_construction() {
        // `w` is bound by nothing: a guaranteed EvalError::Unbound.
        let p = one_rule_policy(Rule::new(
            "Rbad",
            InvocationPattern::Out(ArgPattern::Any),
            Expr::cmp(CmpOp::Eq, Term::var("w"), Term::val(1)),
        ));
        let err = ReferenceMonitor::new(p, PolicyParams::new()).unwrap_err();
        match &err {
            PolicyError::Rejected {
                policy,
                diagnostics,
            } => {
                assert_eq!(policy, "test");
                assert!(diagnostics.iter().any(|d| d.code == "PA001"));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("PA001"), "{text}");
        assert!(text.contains("`w`"), "{text}");
    }

    #[test]
    fn non_fatal_diagnostics_are_exposed_as_warnings() {
        // Only `out` is covered: six uncovered-op warnings, still loadable.
        let p = one_rule_policy(Rule::new(
            "Rout",
            InvocationPattern::Out(ArgPattern::Any),
            Expr::True,
        ));
        let m = ReferenceMonitor::new(p, PolicyParams::new()).unwrap();
        assert_eq!(m.warnings().len(), 6);
        assert!(m.warnings().iter().all(|d| d.code == "PA007"));
        // A fully covering policy loads without warnings.
        let m = ReferenceMonitor::new(Policy::allow_all(), PolicyParams::new()).unwrap();
        assert!(m.warnings().is_empty());
    }

    #[test]
    fn invoker_gating_acts_as_acl() {
        // ACLs are the degenerate case of fine-grained policies (§3).
        let p = one_rule_policy(Rule::new(
            "Rwrite",
            InvocationPattern::Out(ArgPattern::Any),
            crate::ast::invoker_in([1, 2, 3]),
        ));
        let m = ReferenceMonitor::new(p, PolicyParams::new()).unwrap();
        assert!(m
            .decide(
                &Invocation::new(2, OpCall::out(tuple![Value::Int(9)])),
                &EmptyState
            )
            .is_allowed());
        assert!(!m
            .decide(
                &Invocation::new(4, OpCall::out(tuple![Value::Int(9)])),
                &EmptyState
            )
            .is_allowed());
    }
}
