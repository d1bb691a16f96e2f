//! OData query options on GET: `$expand`, `$select`, `$top`, `$skip`.
//!
//! The registry writes a query GET's answer from its tree, so the options
//! live beside it in `redfish-model`; this path re-exports them for the
//! REST layer's callers.

pub use redfish_model::query::QueryOptions;
