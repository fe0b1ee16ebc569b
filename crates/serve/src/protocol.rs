//! Wire protocol: newline-delimited JSON, one request object per line in,
//! one response object per line out.
//!
//! Requests:
//!
//! ```json
//! {"op":"minimize","tenant":"t0","param":5,"algo":"hdrrm","deadline_ms":50,"samples":200,"id":1}
//! {"op":"represent","tenant":"t1","param":10,"id":"q-2"}
//! {"op":"minimize","tenant":"t0","param":5,"algo":"hdrrm","gap":0.25,"id":4}
//! {"op":"update","tenant":"t0","insert":[[0.5,0.5]],"delete":[3],"id":5}
//! {"op":"minimize","tenant":"t0","param":5,"approx":{"eps":0.05,"delta":0.05},"id":6}
//! {"op":"stats"}
//! ```
//!
//! `id` is echoed verbatim in the response (any JSON value), so clients can
//! pipeline requests on one connection and correlate out-of-order replies.
//! Unknown top-level keys are rejected — a typoed `"deadine_ms"` should be
//! a loud `bad_request`, not a silently unlimited query.
//!
//! Responses are `{"id":...,"status":"ok",...}` or
//! `{"id":...,"status":"error","error":"<code>","message":...}`, where
//! `<code>` is one of the [`ErrorKind`] codes.

use rank_regret::{Algorithm, ApproxSpec, Response, RrmError, TerminatedBy};

use crate::json::Json;

/// What a wire request asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// RRM: best set of at most `param` tuples.
    Minimize { param: usize },
    /// RRR: smallest set with rank-regret at most `param`.
    Represent { param: usize },
    /// Mutate the tenant's dataset: delete the given pre-batch row
    /// indices and append the given rows, publishing a new epoch via the
    /// session's snapshot swap. Applied inline on the reader thread —
    /// never queued behind queries, and in-flight queries keep the epoch
    /// they started on.
    Update { insert: Vec<Vec<f64>>, delete: Vec<usize> },
    /// Dump counters and latency histograms (all tenants, or one if
    /// `tenant` is set).
    Stats,
}

/// A parsed wire request, validated but not yet admitted or dispatched.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Echoed verbatim in the response; `None` renders as JSON `null`.
    pub id: Option<Json>,
    pub op: Op,
    /// Required for queries; optional filter for `stats`.
    pub tenant: Option<String>,
    /// `None` means the engine's auto policy picks per dimensionality.
    pub algo: Option<Algorithm>,
    /// Wall-clock deadline for queueing + service, counted from
    /// admission. On cuttable algorithms it becomes the solve's
    /// `Budget::time_limit`, less the queue wait; other algorithms that
    /// age out in the queue answer `deadline_exceeded`. It never changes
    /// the frame (see [`effective_request`]).
    ///
    /// [`effective_request`]: crate::effective_request
    pub deadline_ms: Option<u64>,
    /// Sampled-direction override for randomized solvers.
    pub samples: Option<usize>,
    /// Relative optimality-gap target: on cuttable algorithms it sets
    /// `Budget::gap`, so the solve stops as soon as its certified gap
    /// reaches this value — a deterministic limit, unlike deadlines. With
    /// a deadline, the first limit reached stops the solve. Ignored for
    /// non-cuttable algorithms.
    pub gap: Option<f64>,
    /// Approximate-tier request: `{"approx":{"eps":0.05,"delta":0.05}}`
    /// asks for a sampled-ε answer with Hoeffding confidence instead of
    /// an exact one. `delta` defaults to 0.05 when omitted. Responses
    /// carry `"fidelity":"approx"` plus a `"confidence"` object.
    pub approx: Option<ApproxSpec>,
}

/// Structured error codes carried in the `"error"` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON or an invalid/missing/unknown field.
    BadRequest,
    /// `tenant` names no registered dataset.
    UnknownTenant,
    /// Admission control refused: per-tenant in-flight limit or global
    /// queue cap reached. Immediate, never queued.
    Overloaded,
    /// The wall-clock deadline elapsed before or during service.
    DeadlineExceeded,
    /// The selected algorithm cannot serve this dataset/space.
    Unsupported,
    /// Any other solver-side failure.
    SolverError,
}

impl ErrorKind {
    pub fn code(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownTenant => "unknown_tenant",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::SolverError => "solver_error",
        }
    }

    /// The code a solver-side [`RrmError`] maps to.
    pub fn of_rrm_error(err: &RrmError) -> ErrorKind {
        match err {
            RrmError::Unsupported(_) => ErrorKind::Unsupported,
            _ => ErrorKind::SolverError,
        }
    }
}

const KNOWN_KEYS: [&str; 11] = [
    "op",
    "id",
    "tenant",
    "param",
    "algo",
    "deadline_ms",
    "samples",
    "gap",
    "approx",
    "insert",
    "delete",
];

/// Parse one request line. `Err` carries a `bad_request` message.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let json = crate::json::parse(line)?;
    let obj = match &json {
        Json::Obj(pairs) => pairs,
        _ => return Err("request must be a JSON object".into()),
    };
    for (key, _) in obj {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}`"));
        }
    }

    let id = json.get("id").cloned();
    let op_name = json
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing required string field `op`".to_string())?;
    let tenant = match json.get("tenant") {
        None => None,
        Some(v) => {
            Some(v.as_str().ok_or_else(|| "`tenant` must be a string".to_string())?.to_string())
        }
    };
    let param = match json.get("param") {
        None => None,
        Some(v) => {
            Some(v.as_usize().ok_or_else(|| "`param` must be a non-negative integer".to_string())?)
        }
    };
    let algo = match json.get("algo") {
        None => None,
        Some(v) => {
            let name = v.as_str().ok_or_else(|| "`algo` must be a string".to_string())?;
            Some(Algorithm::from_name(name).map_err(|e| e.to_string())?)
        }
    };
    let deadline_ms = match json.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| "`deadline_ms` must be a non-negative integer".to_string())?
                as u64,
        ),
    };
    let samples = match json.get("samples") {
        None => None,
        Some(v) => Some(
            v.as_usize().ok_or_else(|| "`samples` must be a non-negative integer".to_string())?,
        ),
    };
    let gap = match json.get("gap") {
        None => None,
        Some(v) => {
            let g = v.as_f64().ok_or_else(|| "`gap` must be a number".to_string())?;
            if !g.is_finite() || g < 0.0 {
                return Err("`gap` must be a finite non-negative number".into());
            }
            Some(g)
        }
    };
    let approx = match json.get("approx") {
        None => None,
        Some(v @ Json::Obj(pairs)) => {
            for (key, _) in pairs {
                if key != "eps" && key != "delta" {
                    return Err(format!("unknown `approx` field `{key}` (expected eps, delta)"));
                }
            }
            let eps = v
                .get("eps")
                .ok_or_else(|| "`approx` requires number field `eps`".to_string())?
                .as_f64()
                .ok_or_else(|| "`approx.eps` must be a number".to_string())?;
            let delta = match v.get("delta") {
                None => ApproxSpec::default().delta,
                Some(d) => {
                    d.as_f64().ok_or_else(|| "`approx.delta` must be a number".to_string())?
                }
            };
            Some(ApproxSpec::new(eps, delta).map_err(|e| e.to_string())?)
        }
        Some(_) => return Err(r#"`approx` must be an object like {"eps":0.05}"#.into()),
    };

    let op = match op_name {
        "minimize" | "represent" => {
            let param =
                param.ok_or_else(|| format!("`{op_name}` requires integer field `param`"))?;
            if param == 0 {
                return Err("`param` must be at least 1".into());
            }
            if tenant.is_none() {
                return Err(format!("`{op_name}` requires string field `tenant`"));
            }
            if op_name == "minimize" {
                Op::Minimize { param }
            } else {
                Op::Represent { param }
            }
        }
        "update" => {
            if tenant.is_none() {
                return Err("`update` requires string field `tenant`".into());
            }
            let insert = match json.get("insert") {
                None => Vec::new(),
                Some(v) => parse_insert_rows(v)?,
            };
            let delete = match json.get("delete") {
                None => Vec::new(),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_usize()
                            .ok_or_else(|| "`delete` entries must be row indices".to_string())
                    })
                    .collect::<Result<Vec<usize>, String>>()?,
                Some(_) => return Err("`delete` must be an array of row indices".into()),
            };
            if insert.is_empty() && delete.is_empty() {
                return Err("`update` needs a non-empty `insert` and/or `delete`".into());
            }
            Op::Update { insert, delete }
        }
        "stats" => Op::Stats,
        other => {
            return Err(format!("unknown op `{other}` (expected minimize|represent|update|stats)"))
        }
    };

    Ok(WireRequest { id, op, tenant, algo, deadline_ms, samples, gap, approx })
}

/// `insert`: an array of rows, each an array of finite numbers.
fn parse_insert_rows(v: &Json) -> Result<Vec<Vec<f64>>, String> {
    let Json::Arr(rows) = v else {
        return Err("`insert` must be an array of rows".into());
    };
    rows.iter()
        .map(|row| {
            let Json::Arr(vals) = row else {
                return Err("`insert` rows must be arrays of numbers".into());
            };
            vals.iter()
                .map(|x| {
                    x.as_f64()
                        .filter(|f| f.is_finite())
                        .ok_or_else(|| "`insert` values must be finite numbers".to_string())
                })
                .collect()
        })
        .collect()
}

fn id_json(id: &Option<Json>) -> Json {
    id.clone().unwrap_or(Json::Null)
}

/// Render a successful query response.
///
/// Every response states its `"fidelity"` (`"exact"` or `"approx"`).
/// Approximate answers additionally carry a `"confidence"` object with
/// the `(eps, delta)` statement and the direction-sample size — they are
/// *not* partial: the sampled tier ran to completion at its requested
/// fidelity.
///
/// When a budget limit stopped the solve
/// (`terminated_by.is_early_stop()`) the answer is the solver's best
/// incumbent, not a certified optimum: the response carries
/// `"partial": true` plus a `"diagnostics"` object with the termination
/// reason, the relative optimality gap, and the certified bounds (when
/// the algorithm tracks them).
pub fn ok_response(
    id: &Option<Json>,
    tenant: &str,
    response: &Response,
    queued_micros: u64,
    micros: u64,
) -> Json {
    let indices =
        Json::Arr(response.solution.indices.iter().map(|&i| Json::from(i as u64)).collect());
    let mut fields = vec![
        ("id".into(), id_json(id)),
        ("status".into(), "ok".into()),
        ("tenant".into(), tenant.into()),
        ("algorithm".into(), response.solution.algorithm.name().into()),
        ("fidelity".into(), response.solution.fidelity().name().into()),
        ("size".into(), response.solution.indices.len().into()),
        ("indices".into(), indices),
        (
            "certified_regret".into(),
            response.solution.certified_regret.map_or(Json::Null, Json::from),
        ),
        ("micros".into(), micros.into()),
        ("queued_micros".into(), queued_micros.into()),
    ];
    if let TerminatedBy::Sampled { eps, delta, directions } = response.solution.terminated_by {
        fields.push((
            "confidence".into(),
            Json::Obj(vec![
                ("eps".into(), eps.into()),
                ("delta".into(), delta.into()),
                ("directions".into(), directions.into()),
            ]),
        ));
    }
    if response.solution.terminated_by.is_early_stop() {
        fields.push(("partial".into(), Json::Bool(true)));
        let mut diag = vec![
            ("terminated_by".into(), response.solution.terminated_by.name().into()),
            ("gap".into(), response.solution.gap().map_or(Json::Null, Json::from)),
        ];
        if let Some(b) = response.solution.bounds {
            diag.push((
                "bounds".into(),
                Json::Obj(vec![("lower".into(), b.lower.into()), ("upper".into(), b.upper.into())]),
            ));
        }
        fields.push(("diagnostics".into(), Json::Obj(diag)));
    }
    Json::Obj(fields)
}

/// Render a structured error response; `diagnostics` (if any) is embedded
/// as a `"diagnostics"` object — e.g. queueing time for deadline misses.
pub fn error_response(
    id: &Option<Json>,
    kind: ErrorKind,
    message: &str,
    diagnostics: Option<Json>,
) -> Json {
    let mut fields = vec![
        ("id".into(), id_json(id)),
        ("status".into(), "error".into()),
        ("error".into(), kind.code().into()),
        ("message".into(), message.into()),
    ];
    if let Some(diag) = diagnostics {
        fields.push(("diagnostics".into(), diag));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rank_regret::{AlgoChoice, Fidelity, Request};

    /// The request a wire line denotes on a 4-dimensional tenant.
    fn request(req: &WireRequest) -> Option<Request> {
        crate::effective_request(req, crate::Calibration, 0, 4)
    }

    #[test]
    fn parses_full_minimize_request() {
        let req = parse_request(
            r#"{"op":"minimize","tenant":"t0","param":5,"algo":"hdrrm","deadline_ms":50,"samples":200,"id":7}"#,
        )
        .unwrap();
        assert_eq!(req.op, Op::Minimize { param: 5 });
        assert_eq!(req.tenant.as_deref(), Some("t0"));
        assert_eq!(req.algo, Some(Algorithm::Hdrrm));
        assert_eq!(req.deadline_ms, Some(50));
        assert_eq!(req.samples, Some(200));
        assert_eq!(req.id, Some(Json::from(7u64)));

        let r = request(&req).unwrap();
        assert_eq!(r.param(), 5);
        assert_eq!(r.choice, AlgoChoice::Fixed(Algorithm::Hdrrm));
        assert_eq!(r.budget.samples, Some(200));
        assert_eq!(r.budget.time_limit, Some(std::time::Duration::from_millis(50)));
    }

    #[test]
    fn stats_needs_no_tenant_and_builds_no_request() {
        let req = parse_request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(req.op, Op::Stats);
        assert!(request(&req).is_none());
    }

    #[test]
    fn parses_gap_cutoff_requests() {
        let req = parse_request(
            r#"{"op":"minimize","tenant":"t0","param":5,"algo":"hdrrm","gap":0.25,"id":3}"#,
        )
        .unwrap();
        assert_eq!(req.gap, Some(0.25));
        assert_eq!(req.op, Op::Minimize { param: 5 });
        // Absent → None; queries without a gap are unchanged.
        let req = parse_request(r#"{"op":"represent","tenant":"t0","param":2}"#).unwrap();
        assert_eq!(req.gap, None);
    }

    #[test]
    fn parses_approx_requests() {
        let req = parse_request(
            r#"{"op":"minimize","tenant":"t0","param":5,"approx":{"eps":0.1,"delta":0.02},"id":1}"#,
        )
        .unwrap();
        assert_eq!(req.approx, Some(ApproxSpec { eps: 0.1, delta: 0.02 }));
        let r = request(&req).unwrap();
        assert_eq!(r.fidelity, Fidelity::Approx { eps: 0.1, delta: 0.02 });

        // `delta` defaults when omitted; absent `approx` means exact.
        let req =
            parse_request(r#"{"op":"minimize","tenant":"t0","param":5,"approx":{"eps":0.1}}"#)
                .unwrap();
        assert_eq!(req.approx, Some(ApproxSpec { eps: 0.1, delta: ApproxSpec::default().delta }));
        let req = parse_request(r#"{"op":"minimize","tenant":"t0","param":5}"#).unwrap();
        assert_eq!(req.approx, None);
        assert_eq!(request(&req).unwrap().fidelity, Fidelity::Exact);
    }

    #[test]
    fn parses_update_requests() {
        let req = parse_request(
            r#"{"op":"update","tenant":"t0","insert":[[0.5,0.5],[0.1,0.9]],"delete":[3,0],"id":9}"#,
        )
        .unwrap();
        assert_eq!(
            req.op,
            Op::Update { insert: vec![vec![0.5, 0.5], vec![0.1, 0.9]], delete: vec![3, 0] }
        );
        assert!(request(&req).is_none(), "update is not a query");
        // Delete-only and insert-only batches are both fine.
        let req = parse_request(r#"{"op":"update","tenant":"t0","delete":[1]}"#).unwrap();
        assert_eq!(req.op, Op::Update { insert: vec![], delete: vec![1] });
    }

    #[test]
    fn rejects_malformed_and_invalid_requests() {
        for (line, needle) in [
            ("{not json", "expected"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"tenant":"t0"}"#, "missing required string field `op`"),
            (r#"{"op":"minimize","tenant":"t0"}"#, "requires integer field `param`"),
            (r#"{"op":"minimize","param":3}"#, "requires string field `tenant`"),
            (r#"{"op":"minimize","tenant":"t0","param":0}"#, "at least 1"),
            (r#"{"op":"minimize","tenant":"t0","param":-2}"#, "non-negative integer"),
            (r#"{"op":"sample","tenant":"t0","param":3}"#, "unknown op"),
            (r#"{"op":"stats","deadine_ms":5}"#, "unknown field `deadine_ms`"),
            (r#"{"op":"minimize","tenant":"t0","param":3,"algo":"xdrrm"}"#, "unknown algorithm"),
            (r#"{"op":"minimize","tenant":"t0","param":3,"gap":"big"}"#, "must be a number"),
            (r#"{"op":"minimize","tenant":"t0","param":3,"gap":-0.5}"#, "non-negative"),
            (r#"{"op":"minimize","tenant":"t0","param":3,"approx":0.1}"#, "must be an object"),
            (
                r#"{"op":"minimize","tenant":"t0","param":3,"approx":{}}"#,
                "requires number field `eps`",
            ),
            (
                r#"{"op":"minimize","tenant":"t0","param":3,"approx":{"eps":1.5}}"#,
                "between 0 and 1",
            ),
            (
                r#"{"op":"minimize","tenant":"t0","param":3,"approx":{"eps":0.1,"epps":0.2}}"#,
                "unknown `approx` field",
            ),
            (r#"{"op":"update","insert":[[0.1]]}"#, "requires string field `tenant`"),
            (r#"{"op":"update","tenant":"t0"}"#, "non-empty"),
            (r#"{"op":"update","tenant":"t0","insert":[0.1]}"#, "rows must be arrays"),
            (r#"{"op":"update","tenant":"t0","delete":[-1]}"#, "row indices"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.to_lowercase().contains(&needle.to_lowercase()),
                "line {line:?}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn error_response_renders_code_and_diagnostics() {
        let j = error_response(
            &Some(Json::from("q-9")),
            ErrorKind::DeadlineExceeded,
            "deadline of 5ms elapsed while queued",
            Some(Json::Obj(vec![("queued_micros".into(), Json::from(6100u64))])),
        );
        assert_eq!(
            j.render(),
            r#"{"id":"q-9","status":"error","error":"deadline_exceeded","message":"deadline of 5ms elapsed while queued","diagnostics":{"queued_micros":6100}}"#
        );
    }
}
