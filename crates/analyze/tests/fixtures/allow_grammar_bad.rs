// Known-bad fixture for the allow-annotation grammar: an escape hatch
// without a justification never passes. Never compiled.

// analyze::allow(nondeterminism)
use std::collections::HashMap;

// analyze::allow(panic-path, reason = "")
pub fn empty_reason(m: Option<u64>) -> u64 {
    m.unwrap()
}
