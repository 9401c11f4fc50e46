//! The wire protocol, once for both front ends: the route table, request
//! validation, and the owned per-connection state (pinned document,
//! prepared-statement table, evaluation options) that lives in its event
//! loop's connection table. What differs between `mhxd` and `mhxr` is
//! only *where* a validated request runs — the [`Service`] it is handed
//! to: the daemon's [`Catalog`](crate::engine::Catalog) (`server/mod.rs`)
//! or the router's replica sets (`router.rs`). A client therefore cannot
//! tell them apart by status or body, only by the `/stats` sections.
//!
//! Endpoints (all bodies JSON, see [`super::wire`]):
//!
//! | method | path               | action                                    |
//! |--------|--------------------|-------------------------------------------|
//! | GET    | `/healthz`         | liveness probe                            |
//! | POST   | `/query`           | ad-hoc query `{doc?, lang?, query, explain?, options?}` |
//! | POST   | `/prepare`         | compile `{lang?, query}` → `{handle}`     |
//! | POST   | `/execute`         | run a prepared handle `{handle, doc?, options?}` |
//! | PUT    | `/documents/{id}`  | upload `{hierarchies: [{name, xml}…]}`    |
//! | GET    | `/documents`       | list documents with residency + snapshot size |
//! | GET    | `/stats`           | cache/eval/server/store + per-session counters |
//! | POST   | `/shutdown`        | request graceful drain                    |
//!
//! A request without `doc` runs on the connection's pinned document, else
//! on the only document there is. A request pins its document once the
//! document could be opened, even if the query itself then fails.

use crate::engine::QueryLang;
use crate::server::event::{ConnStats, Hub};
use crate::server::http::Request;
use crate::server::wire;
use mhx_json::Json;
use mhx_xquery::EvalOptions;
use std::sync::Arc;

/// Cap on prepared statements per connection: compiled plans held outside
/// the LRU cache must stay bounded, mirroring the cache's own capacity.
/// The router also keeps its pooled backend sessions under it.
pub(crate) const MAX_PREPARED_PER_CONN: usize = 256;

/// A reply: status plus JSON body.
type Reply = (u16, Json);

/// Where a validated request is executed. Every method gets arguments
/// the protocol layer has already checked; every error is a complete
/// wire reply.
pub(crate) trait Service: Send + Sync + 'static {
    /// What a connection's prepared-statement table holds.
    type Prepared;

    /// The options a new connection starts with.
    fn conn_options(&self) -> EvalOptions;

    /// `GET /documents` rows `{id, residency, snapshot_bytes}`, one per
    /// document, sorted by id.
    fn documents(&self) -> Result<Vec<Json>, Reply>;

    /// Run (or, with `explain`, render the plan of) `src` on `doc`.
    /// `Err` means the document could not be opened, so it is not pinned.
    fn query(
        &self,
        conn: &ConnStats,
        doc: &str,
        opts: &EvalOptions,
        lang: QueryLang,
        src: &str,
        explain: bool,
    ) -> Result<Reply, Reply>;

    /// Compile `src`; `Err` is the compile failure's reply.
    fn prepare(&self, lang: QueryLang, src: &str) -> Result<Self::Prepared, Reply>;

    /// Run a prepared statement on `doc`; `Err` as for [`Service::query`].
    fn execute(
        &self,
        conn: &ConnStats,
        doc: &str,
        opts: &EvalOptions,
        stmt: &Self::Prepared,
    ) -> Result<Reply, Reply>;

    /// Register (or replace) document `id` from `(name, xml)` pairs.
    fn upload(&self, id: &str, hierarchies: &[(&str, &str)]) -> Reply;

    /// The `/stats` body.
    fn stats(&self, hub: &Hub) -> Json;
}

/// Mutable per-connection state. Owned (`'static`) so it can live in the
/// event loop's connection table between requests.
pub(crate) struct ConnState<P> {
    /// The connection's `/stats` row.
    pub(crate) stats: Arc<ConnStats>,
    /// The pinned document requests default to when they carry no `doc`.
    doc: Option<String>,
    prepared: Vec<P>,
    /// The connection's evaluation options (survive document re-pins).
    opts: EvalOptions,
}

impl<P> ConnState<P> {
    pub(crate) fn new(stats: Arc<ConnStats>, opts: EvalOptions) -> ConnState<P> {
        ConnState { stats, doc: None, prepared: Vec::new(), opts }
    }
}

fn ok_body(fields: Vec<(&str, Json)>) -> Json {
    let mut entries = vec![("ok".to_string(), Json::Bool(true))];
    entries.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(entries)
}

fn bad_request(message: &str) -> Reply {
    (400, wire::protocol_error_body("bad_request", message))
}

/// Route one parsed request. Runs inline on the event loop that read it,
/// which guarantees requests from one connection arrive here serially.
pub(crate) fn route<S: Service>(
    svc: &S,
    hub: &Hub,
    conn: &mut ConnState<S::Prepared>,
    req: &Request,
) -> Reply {
    // Resolve the path first, then the method: a known path with the
    // wrong method is always a 405, without a second hand-maintained
    // list of routes that could drift.
    let (path, method) = (req.path.as_str(), req.method.as_str());
    let upload_id = path.strip_prefix("/documents/").filter(|id| !id.is_empty());
    let allowed = match path {
        "/healthz" | "/" | "/documents" | "/stats" => "GET",
        "/query" | "/prepare" | "/execute" | "/shutdown" => "POST",
        _ if upload_id.is_some() => "PUT",
        _ => {
            return (404, wire::protocol_error_body("not_found", &format!("no route for `{path}`")))
        }
    };
    if method != allowed {
        return (
            405,
            wire::protocol_error_body("method_not_allowed", "wrong method for this path"),
        );
    }
    let body = || body_object(req);
    let result = match path {
        "/healthz" | "/" => Ok((200, ok_body(vec![]))),
        "/query" => body().and_then(|b| query(svc, conn, &b)),
        "/prepare" => body().and_then(|b| prepare(svc, conn, &b)),
        "/execute" => body().and_then(|b| execute(svc, conn, &b)),
        "/documents" => {
            svc.documents().map(|docs| (200, ok_body(vec![("documents", Json::Arr(docs))])))
        }
        "/stats" => Ok((200, svc.stats(hub))),
        "/shutdown" => {
            hub.request_shutdown();
            Ok((200, ok_body(vec![("draining", Json::Bool(true))])))
        }
        _ => body().and_then(|b| upload(svc, upload_id.expect("routed as an upload"), &b)),
    };
    result.unwrap_or_else(|err| err)
}

/// Parse the request body as a JSON object; protocol error otherwise.
fn body_object(req: &Request) -> Result<Json, Reply> {
    let text = req
        .body_str()
        .ok_or_else(|| (400, wire::protocol_error_body("bad_json", "body is not UTF-8")))?;
    let json =
        mhx_json::parse(text).map_err(|e| (400, wire::protocol_error_body("bad_json", &e)))?;
    if json.as_obj().is_none() {
        return Err((400, wire::protocol_error_body("bad_json", "body must be a JSON object")));
    }
    Ok(json)
}

/// The required `query` text and optional `lang` of `/query` and
/// `/prepare`.
fn query_fields(body: &Json) -> Result<(QueryLang, &str), Reply> {
    let src = body
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| bad_request("missing string field `query`"))?;
    let lang = match body.get("lang") {
        None => QueryLang::XQuery,
        Some(v) => v
            .as_str()
            .and_then(wire::parse_lang)
            .ok_or_else(|| bad_request("`lang` must be `xpath` or `xquery`"))?,
    };
    Ok((lang, src))
}

/// Apply the request's `"options"` patch onto the connection, then
/// resolve its document: explicit `doc` field, else the connection's
/// pinned document, else the only document there is.
fn options_and_doc<S: Service>(
    svc: &S,
    conn: &mut ConnState<S::Prepared>,
    body: &Json,
) -> Result<String, Reply> {
    if let Some(options) = body.get("options") {
        wire::apply_options(&mut conn.opts, options)
            .map_err(|message| (400, wire::protocol_error_body("bad_options", &message)))?;
    }
    if let Some(doc) = body.get("doc") {
        return doc
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| bad_request("`doc` must be a string"));
    }
    if let Some(doc) = &conn.doc {
        return Ok(doc.clone());
    }
    match svc.documents()?.as_slice() {
        [only] => Ok(only.get("id").and_then(Json::as_str).unwrap_or_default().to_string()),
        _ => Err((
            400,
            wire::protocol_error_body(
                "no_document",
                "no `doc` given, none pinned, and there is not exactly one document",
            ),
        )),
    }
}

/// Remember `doc` for later requests that omit it — once the service
/// could open it.
fn pin<P>(
    conn: &mut ConnState<P>,
    doc: String,
    result: Result<Reply, Reply>,
) -> Result<Reply, Reply> {
    if result.is_ok() && conn.doc.as_deref() != Some(doc.as_str()) {
        conn.stats.set_doc(&doc);
        conn.doc = Some(doc);
    }
    result
}

fn query<S: Service>(
    svc: &S,
    conn: &mut ConnState<S::Prepared>,
    body: &Json,
) -> Result<Reply, Reply> {
    let (lang, src) = query_fields(body)?;
    let explain = match body.get("explain") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| bad_request("`explain` must be a boolean"))?,
    };
    let doc = options_and_doc(svc, conn, body)?;
    let result = svc.query(&conn.stats, &doc, &conn.opts, lang, src, explain);
    pin(conn, doc, result)
}

fn prepare<S: Service>(
    svc: &S,
    conn: &mut ConnState<S::Prepared>,
    body: &Json,
) -> Result<Reply, Reply> {
    let (lang, src) = query_fields(body)?;
    if conn.prepared.len() >= MAX_PREPARED_PER_CONN {
        return Err((
            400,
            wire::protocol_error_body(
                "too_many_prepared",
                &format!("this connection already holds {MAX_PREPARED_PER_CONN} prepared queries"),
            ),
        ));
    }
    conn.prepared.push(svc.prepare(lang, src)?);
    let handle = conn.prepared.len() - 1;
    Ok((
        200,
        ok_body(vec![
            ("handle", Json::Num(handle as f64)),
            ("lang", Json::Str(lang.name().into())),
        ]),
    ))
}

fn execute<S: Service>(
    svc: &S,
    conn: &mut ConnState<S::Prepared>,
    body: &Json,
) -> Result<Reply, Reply> {
    let handle = body
        .get("handle")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad_request("missing integer field `handle`"))?;
    if handle as usize >= conn.prepared.len() {
        return Err((
            404,
            wire::protocol_error_body(
                "unknown_handle",
                &format!("no prepared query with handle {handle} on this connection"),
            ),
        ));
    }
    let doc = options_and_doc(svc, conn, body)?;
    let result = svc.execute(&conn.stats, &doc, &conn.opts, &conn.prepared[handle as usize]);
    pin(conn, doc, result)
}

fn upload<S: Service>(svc: &S, id: &str, body: &Json) -> Result<Reply, Reply> {
    let hierarchies = body
        .get("hierarchies")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad_request("missing array `hierarchies`"))?;
    if hierarchies.is_empty() {
        return Err(bad_request("`hierarchies` must be non-empty"));
    }
    let pairs = hierarchies
        .iter()
        .map(|h| {
            match (h.get("name").and_then(Json::as_str), h.get("xml").and_then(Json::as_str)) {
                (Some(name), Some(xml)) => Ok((name, xml)),
                _ => Err(bad_request("each hierarchy needs string fields `name` and `xml`")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(svc.upload(id, &pairs))
}
