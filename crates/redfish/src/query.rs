//! OData query options on GET: `$expand`, `$select`, `$top`, `$skip`.
//!
//! Redfish clients use these to trim payloads: `$select` projects members,
//! `$top`/`$skip` paginate collection `Members`, `$expand` inlines them.
//! Pagination leaves `Members@odata.count` at the TOTAL collection size
//! (DSP0266: the count is unaffected by `$top`/`$skip`) and emits a
//! `Members@odata.nextLink` pointing at the next page when members remain;
//! the link keeps the request's `$expand` and `$select`, so following it
//! yields the next page of the same view. Malformed values are a 400
//! `QueryParameterValueTypeError`, not silently ignored.
//!
//! The registry answers a query GET by writing these options straight from
//! its tree ([`crate::Registry::query`]); [`QueryOptions::apply`] states the
//! same answer over a `Value` and is what tests hold that writer to.

use crate::{RedfishError, RedfishResult};
use serde_json::{Map, Value};

/// Parsed query options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOptions {
    /// Inline collection members (`$expand=.` or `$expand=*`).
    pub expand: bool,
    /// Project these top-level members (plus `@odata.*` control data).
    pub select: Option<Vec<String>>,
    /// Return at most this many collection members.
    pub top: Option<usize>,
    /// Skip this many collection members first.
    pub skip: Option<usize>,
}

fn bad_value(parameter: &str, value: &str) -> RedfishError {
    RedfishError::QueryParameterValueTypeError {
        parameter: parameter.to_string(),
        value: value.to_string(),
    }
}

/// Whether `v` is a well-formed DSP0266 `$expand` value: one of the levels
/// `.` (subordinate), `~` (dependent links), or `*` (both), optionally
/// followed by a `($levels=N)` clause with N ≥ 1.
fn valid_expand(v: &str) -> bool {
    let mut chars = v.chars();
    if !matches!(chars.next(), Some('.' | '*' | '~')) {
        return false;
    }
    let rest = chars.as_str();
    rest.is_empty()
        || rest
            .strip_prefix("($levels=")
            .and_then(|s| s.strip_suffix(')'))
            .is_some_and(|n| n.parse::<usize>().is_ok_and(|n| n >= 1))
}

impl QueryOptions {
    /// Parse a raw query string (already stripped of `?`).
    ///
    /// `$expand` accepts the DSP0266 levels `.`, `*`, and `~`, each with an
    /// optional `($levels=N)` clause; this service approximates them all as
    /// one-level member expansion. `$top` and `$skip` must be non-negative
    /// integers. Anything else fails with
    /// [`RedfishError::QueryParameterValueTypeError`] (HTTP 400). Unknown
    /// options are ignored per the spec.
    pub fn parse(raw: &str) -> RedfishResult<QueryOptions> {
        let mut q = QueryOptions::default();
        for pair in raw.split('&') {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            match k {
                "$expand" => {
                    if !valid_expand(v) {
                        return Err(bad_value("$expand", v));
                    }
                    q.expand = true;
                }
                "$select" => {
                    q.select = Some(
                        v.split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect(),
                    )
                }
                "$top" => q.top = Some(v.parse().map_err(|_| bad_value("$top", v))?),
                "$skip" => q.skip = Some(v.parse().map_err(|_| bad_value("$skip", v))?),
                _ => {} // unknown options are ignored per the spec
            }
        }
        Ok(q)
    }

    /// Whether anything must be applied at all.
    pub fn is_noop(&self) -> bool {
        self == &QueryOptions::default()
    }

    /// Whether `$select` keeps the member `key`: every member without a
    /// `$select`; otherwise `@odata.*` control data, the selected members,
    /// and each selected member's own `Member@odata.*` annotations.
    pub(crate) fn selects(&self, key: &str) -> bool {
        let Some(select) = &self.select else { return true };
        let annotated = key.split_once("@odata.").map_or(key, |(member, _)| member);
        annotated.is_empty() || select.iter().any(|s| s == key || s == annotated)
    }

    /// The `Members@odata.nextLink` of a page of `id` that ends after
    /// `skipped` members: the next page of the same view, so `$top`,
    /// `$expand` and `$select` carry over.
    pub(crate) fn next_link(&self, id: &str, skipped: usize) -> String {
        let mut link = format!("{id}?$skip={skipped}");
        if let Some(t) = self.top {
            link.push_str(&format!("&$top={t}"));
        }
        if self.expand {
            link.push_str("&$expand=.");
        }
        if let Some(select) = &self.select {
            link.push_str("&$select=");
            link.push_str(&select.join(","));
        }
        link
    }

    /// Whether `$top` or `$skip` asks for one page of `Members`.
    pub(crate) fn pages(&self) -> bool {
        self.skip.is_some() || self.top.is_some()
    }

    /// Apply pagination and projection to a response body, in the spec's
    /// order: paginate `Members` first, then project.
    ///
    /// After pagination, `Members@odata.count` still reports the TOTAL
    /// number of members in the collection (per DSP0266 it is unaffected by
    /// `$top`/`$skip` — nextLink plus total count is how clients size the
    /// collection), and `Members@odata.nextLink` is set when more members
    /// remain beyond this page. An empty page (e.g. `$top=0`) never emits a
    /// nextLink: its paging state would be identical to the request that
    /// produced it, looping link-following clients forever.
    pub fn apply(&self, mut body: Value) -> Value {
        if self.pages() {
            let self_id = body.get("@odata.id").and_then(Value::as_str).map(str::to_string);
            let mut page_info = None;
            if let Some(members) = body.get_mut("Members").and_then(Value::as_array_mut) {
                let total = members.len();
                let skip = self.skip.unwrap_or(0);
                let top = self.top.unwrap_or(usize::MAX);
                let page: Vec<Value> = members.iter().skip(skip).take(top).cloned().collect();
                let shown = page.len();
                *members = page;
                page_info = Some((shown, shown > 0 && skip.saturating_add(shown) < total));
            }
            if let (Some((shown, true)), Some(id), Some(obj)) = (page_info, self_id, body.as_object_mut()) {
                let link = self.next_link(&id, self.skip.unwrap_or(0) + shown);
                obj.insert("Members@odata.nextLink".to_string(), Value::String(link));
            }
        }
        if self.select.is_some() {
            if let Value::Object(obj) = body {
                body = Value::Object(obj.into_iter().filter(|(k, _)| self.selects(k)).collect::<Map>());
            }
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn parse(raw: &str) -> QueryOptions {
        QueryOptions::parse(raw).expect("valid query")
    }

    #[test]
    fn parses_all_options() {
        let q = parse("$expand=.&$select=Name,Status&$top=5&$skip=10");
        assert!(q.expand);
        assert_eq!(
            q.select.as_deref(),
            Some(&["Name".to_string(), "Status".to_string()][..])
        );
        assert_eq!(q.top, Some(5));
        assert_eq!(q.skip, Some(10));
        assert!(parse("").is_noop());
        assert!(parse("unknown=1").is_noop());
    }

    #[test]
    fn expand_accepts_only_spec_levels() {
        for good in [
            "$expand=*",
            "$expand=.",
            "$expand=~",
            "$expand=.($levels=2)",
            "$expand=*($levels=1)",
        ] {
            assert!(parse(good).expand, "{good}");
        }
        for bad in [
            "$expand",
            "$expand=",
            "$expand=yes",
            "$expand=.($levels=0)",
            "$expand=.($levels=)",
            "$expand=.(levels=2)",
            "$expand=.($levels=2",
        ] {
            let err = QueryOptions::parse(bad).unwrap_err();
            assert!(
                matches!(err, RedfishError::QueryParameterValueTypeError { ref parameter, .. } if parameter == "$expand"),
                "{bad}: {err:?}"
            );
            assert_eq!(err.http_status(), 400);
        }
    }

    #[test]
    fn malformed_top_and_skip_are_rejected() {
        for bad in ["$top=abc", "$top=-1", "$top=", "$skip=1.5", "$skip=x"] {
            let err = QueryOptions::parse(bad).unwrap_err();
            assert_eq!(err.http_status(), 400, "{bad}");
            assert_eq!(err.message_id(), "Base.1.0.QueryParameterValueTypeError");
        }
    }

    #[test]
    fn select_projects_but_keeps_odata_control_data() {
        let q = parse("$select=Name");
        let out = q.apply(json!({
            "@odata.id": "/redfish/v1/Systems/x",
            "@odata.type": "#ComputerSystem.v1.ComputerSystem",
            "Name": "x",
            "Status": {"State": "Enabled"},
            "PowerState": "On",
        }));
        assert_eq!(out["Name"], "x");
        assert_eq!(out["@odata.id"], "/redfish/v1/Systems/x");
        assert!(out.get("Status").is_none());
        assert!(out.get("PowerState").is_none());
    }

    #[test]
    fn pagination_slices_members_and_keeps_total_count() {
        let q = parse("$top=2&$skip=1");
        let out = q.apply(json!({
            "@odata.id": "/redfish/v1/Systems",
            "Members": [{"n": 0}, {"n": 1}, {"n": 2}, {"n": 3}],
            "Members@odata.count": 4,
        }));
        let m = out["Members"].as_array().unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0]["n"], 1);
        assert_eq!(m[1]["n"], 2);
        // DSP0266: the count stays at the TOTAL collection size, unaffected
        // by $top/$skip; a nextLink points at the rest.
        assert_eq!(out["Members@odata.count"], 4);
        assert_eq!(out["Members@odata.nextLink"], "/redfish/v1/Systems?$skip=3&$top=2");
    }

    #[test]
    fn last_page_has_no_next_link() {
        let q = parse("$top=2&$skip=2");
        let out = q.apply(json!({
            "@odata.id": "/redfish/v1/Systems",
            "Members": [{"n": 0}, {"n": 1}, {"n": 2}, {"n": 3}],
            "Members@odata.count": 4,
        }));
        assert_eq!(out["Members@odata.count"], 4);
        assert!(out.get("Members@odata.nextLink").is_none());
    }

    #[test]
    fn skip_only_returns_rest_without_next_link() {
        let q = parse("$skip=1");
        let out = q.apply(json!({
            "@odata.id": "/redfish/v1/Systems",
            "Members": [{"n": 0}, {"n": 1}, {"n": 2}],
            "Members@odata.count": 3,
        }));
        // Without $top the rest of the collection is returned; no nextLink.
        assert_eq!(out["Members@odata.count"], 3);
        assert!(out.get("Members@odata.nextLink").is_none());
    }

    #[test]
    fn skip_past_end_is_empty() {
        let q = parse("$skip=99");
        let out = q.apply(json!({"@odata.id": "/x", "Members": [{"n": 0}], "Members@odata.count": 1}));
        assert!(out["Members"].as_array().unwrap().is_empty());
        assert_eq!(out["Members@odata.count"], 1);
        assert!(out.get("Members@odata.nextLink").is_none());
    }

    #[test]
    fn top_zero_never_emits_next_link() {
        // An empty page must not link to itself — a client following
        // nextLink until absent would otherwise loop forever.
        let q = parse("$top=0&$skip=1");
        let out = q.apply(json!({
            "@odata.id": "/redfish/v1/Systems",
            "Members": [{"n": 0}, {"n": 1}, {"n": 2}],
            "Members@odata.count": 3,
        }));
        assert!(out["Members"].as_array().unwrap().is_empty());
        assert_eq!(out["Members@odata.count"], 3);
        assert!(out.get("Members@odata.nextLink").is_none());
    }

    #[test]
    fn next_link_keeps_the_views_other_options() {
        let body = json!({
            "@odata.id": "/redfish/v1/Systems",
            "Name": "Systems",
            "Members": [{"n": 0}, {"n": 1}, {"n": 2}],
            "Members@odata.count": 3,
        });
        for (query, link) in [
            ("$expand=.&$top=1", "/redfish/v1/Systems?$skip=1&$top=1&$expand=."),
            (
                "$select=Name,Members&$top=1",
                "/redfish/v1/Systems?$skip=1&$top=1&$select=Name,Members",
            ),
            (
                "$top=1&$select=Members",
                "/redfish/v1/Systems?$skip=1&$top=1&$select=Members",
            ),
        ] {
            let q = parse(query);
            let out = q.apply(body.clone());
            assert_eq!(out["Members@odata.nextLink"], link, "{query}");
            // A selected member keeps its own annotations.
            assert_eq!(out["Members@odata.count"], 3, "{query}");
            // The link asks for the next page of the same view.
            let (_, next) = link.split_once('?').unwrap();
            assert_eq!(parse(next), QueryOptions { skip: Some(1), ..q }, "{query}");
        }
        let out = parse("$top=1&$select=Members").apply(body.clone());
        assert!(out.get("Name").is_none());
        // Annotations of a member not selected go with it.
        let out = parse("$top=1&$select=Name").apply(body);
        assert!(out.get("Members@odata.count").is_none());
        assert!(out.get("Members@odata.nextLink").is_none());
    }

    #[test]
    fn noop_passthrough() {
        let q = parse("");
        let body = json!({"a": 1, "Members": [1, 2, 3]});
        assert_eq!(q.apply(body.clone()), body);
    }
}
