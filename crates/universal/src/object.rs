//! The typed-object model of §6.
//!
//! A type `T = ⟨STATE_T, S_T, INVOKE_T, REPLY_T, apply_T⟩` is captured by
//! the [`ObjectType`] trait: a deterministic transition function from
//! `(state, invocation)` to `(state, reply)`. Invocations and replies are
//! [`Value`]s so they can travel inside tuples (`SEQ`/`ANN`).

use peats_tuplespace::Value;

/// A deterministic sequential object type, emulable by the universal
/// constructions.
///
/// Determinism is essential: every correct process replays the same
/// operation list and must reach the same state (Theorems 6–7). Emulating
/// nondeterministic types needs the generalisation of Malkhi et al. \[11\],
/// which is out of scope here (as in the paper).
pub trait ObjectType: Send + Sync + 'static {
    /// Per-process replica state.
    type State: Clone + Send;

    /// `S_T`: the initial state.
    fn initial(&self) -> Self::State;

    /// `apply_T(S, inv) → (S', reply)`.
    ///
    /// Must be total: unknown or malformed invocations should return an
    /// error *reply* (conventionally `Value::Null`) and leave the state
    /// unchanged, never panic — Byzantine processes may thread garbage.
    fn apply(&self, state: &Self::State, invocation: &Value) -> (Self::State, Value);
}

/// Convenience: replays a sequence of invocations from the initial state,
/// returning the final state and all replies. This is the reference
/// executor used by tests and the linearizability replay checker.
pub fn replay<T: ObjectType>(ty: &T, invocations: &[Value]) -> (T::State, Vec<Value>) {
    let mut state = ty.initial();
    let mut replies = Vec::with_capacity(invocations.len());
    for inv in invocations {
        let (next, reply) = ty.apply(&state, inv);
        state = next;
        replies.push(reply);
    }
    (state, replies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::Counter;

    #[test]
    fn replay_applies_in_order() {
        let ty = Counter;
        let invs = vec![Counter::increment(), Counter::increment(), Counter::get()];
        let (state, replies) = replay(&ty, &invs);
        assert_eq!(state, 2);
        assert_eq!(replies[2], Value::Int(2));
    }
}
