// Known-bad fixture for the allow-annotation grammar: an allow naming a
// rule the catalog does not have (here one that no longer exists)
// suppresses nothing, so it is itself a violation. Never compiled.

// analyze::allow(panic-free-library, reason = "this rule id is not in the catalog")
use std::collections::HashMap;
