//! Structured error taxonomy for the serving tier.
//!
//! Every non-200 response the server emits is a [`ServeError`]: a stable
//! machine-readable `code`, an HTTP status, a **retryable** classification,
//! and (for load-shedding responses) a retry-after hint. The JSON error
//! body always carries `error`, `code`, and `retryable`, so clients can
//! decide to back off and retry without parsing prose — the contract
//! [`crate::client::RetryingClient`] and loadgen's `--chaos` mode build on.
//!
//! Per-code counters ([`ErrorStats`]) are surfaced under `errors_by_code`
//! in `GET /metrics`.

use crate::http::Response;
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Stable machine-readable error classes (the `code` field of every JSON
/// error body). The set is closed on purpose: dashboards and clients can
/// switch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed request (bad JSON, bad geometry, bad parameters). 400.
    BadRequest,
    /// No tenant by that name. 404.
    NotFound,
    /// Route exists, method doesn't. 405.
    MethodNotAllowed,
    /// Body exceeds `max_body_bytes`. 413.
    PayloadTooLarge,
    /// The client was too slow delivering its request (slow-loris guard) —
    /// the per-request deadline expired while reading the socket. 408.
    RequestTimeout,
    /// The request's deadline expired server-side (before a cold reload or
    /// before predict) and the work was dropped uncomputed. 504.
    DeadlineExceeded,
    /// Load shed by the admission gate (connection backlog full). 503 with
    /// `Retry-After`.
    Overloaded,
    /// Model store I/O failed (persist on publish, read on cold reload).
    /// Transient by assumption — the previous version keeps serving — so
    /// 503, not 500. Retryable.
    StoreIo,
    /// Unexpected server-side failure (e.g. a panicking predictor). 500.
    Internal,
}

impl ErrorCode {
    /// Every code, in counter order (indexes [`ErrorStats`]).
    pub const ALL: [ErrorCode; 9] = [
        ErrorCode::BadRequest,
        ErrorCode::NotFound,
        ErrorCode::MethodNotAllowed,
        ErrorCode::PayloadTooLarge,
        ErrorCode::RequestTimeout,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Overloaded,
        ErrorCode::StoreIo,
        ErrorCode::Internal,
    ];

    /// The wire spelling used in JSON bodies and `/metrics`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotFound => "not_found",
            ErrorCode::MethodNotAllowed => "method_not_allowed",
            ErrorCode::PayloadTooLarge => "payload_too_large",
            ErrorCode::RequestTimeout => "request_timeout",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::StoreIo => "store_io",
            ErrorCode::Internal => "internal",
        }
    }

    /// HTTP status this class maps to.
    #[must_use]
    pub fn status(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 400,
            ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::RequestTimeout => 408,
            ErrorCode::DeadlineExceeded => 504,
            ErrorCode::Overloaded | ErrorCode::StoreIo => 503,
            ErrorCode::Internal => 500,
        }
    }

    /// Whether an identical retry can plausibly succeed. Timeouts, sheds,
    /// and store I/O are transient; everything 4xx-semantic or
    /// internal is permanent.
    #[must_use]
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::RequestTimeout
                | ErrorCode::DeadlineExceeded
                | ErrorCode::Overloaded
                | ErrorCode::StoreIo
        )
    }

    fn index(self) -> usize {
        ErrorCode::ALL
            .iter()
            .position(|c| *c == self)
            .unwrap_or(ErrorCode::ALL.len() - 1)
    }
}

/// One classified serving error: what happened, how it maps to HTTP, and
/// whether the client should retry.
#[derive(Debug)]
pub struct ServeError {
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail (the `error` field of the JSON body).
    pub message: String,
    /// Retry hint attached to shed responses (`Retry-After` header +
    /// `retry_after_ms` body field).
    pub retry_after: Option<Duration>,
}

impl ServeError {
    /// An error of `code` with a message and the code's default hint
    /// (shed-class errors carry a 1 s `Retry-After`).
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        let retry_after = match code {
            ErrorCode::Overloaded | ErrorCode::StoreIo => Some(Duration::from_secs(1)),
            _ => None,
        };
        Self {
            code,
            message: message.into(),
            retry_after,
        }
    }

    /// 400 with `code: bad_request`.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadRequest, message)
    }

    /// 404 with `code: not_found`.
    #[must_use]
    pub fn not_found(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::NotFound, message)
    }

    /// 408 with `code: request_timeout` (slow client).
    #[must_use]
    pub fn request_timeout(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::RequestTimeout, message)
    }

    /// 504 with `code: deadline_exceeded` (expired work dropped).
    #[must_use]
    pub fn deadline_exceeded(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::DeadlineExceeded, message)
    }

    /// 503 shed with `code: overloaded` and a `Retry-After` hint.
    #[must_use]
    pub fn overloaded(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Overloaded, message)
    }

    /// 503 with `code: store_io` (transient persistence failure).
    #[must_use]
    pub fn store_io(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::StoreIo, message)
    }

    /// 500 with `code: internal`.
    #[must_use]
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Internal, message)
    }

    /// Renders the canonical JSON error response:
    /// `{"error", "code", "retryable"[, "retry_after_ms"]}` plus the
    /// `Retry-After` header on shed-class errors.
    #[must_use]
    pub fn to_response(&self) -> Response {
        self.render(None)
    }

    /// [`ServeError::to_response`] with the request id stamped into both
    /// the JSON body (`request_id` field) and the `X-Request-Id` response
    /// header, so a failed call is correlatable with the access log.
    #[must_use]
    pub fn to_response_with_id(&self, request_id: &str) -> Response {
        self.render(Some(request_id))
    }

    fn render(&self, request_id: Option<&str>) -> Response {
        let mut fields = vec![
            ("error".to_string(), Value::Str(self.message.clone())),
            ("code".to_string(), Value::Str(self.code.as_str().into())),
            ("retryable".to_string(), Value::Bool(self.code.retryable())),
        ];
        if let Some(id) = request_id {
            fields.push(("request_id".to_string(), Value::Str(id.to_string())));
        }
        if let Some(d) = self.retry_after {
            fields.push((
                "retry_after_ms".to_string(),
                Value::Num(d.as_millis() as f64),
            ));
        }
        let body = serde_json::to_string(&Value::Obj(fields)).unwrap_or_else(|_| "{}".into());
        let mut response = Response::json(self.code.status(), body);
        response.retry_after = self.retry_after;
        if let Some(id) = request_id {
            response.request_id = Some(id.to_string());
        }
        response
    }
}

/// Lock-free per-[`ErrorCode`] counters, rendered as `errors_by_code` in
/// `GET /metrics`.
#[derive(Debug, Default)]
pub struct ErrorStats {
    counters: [AtomicU64; ErrorCode::ALL.len()],
}

impl ErrorStats {
    /// Counts one error of `code`.
    pub fn record(&self, code: ErrorCode) {
        self.counters[code.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Current count for `code`.
    #[must_use]
    pub fn get(&self, code: ErrorCode) -> u64 {
        self.counters[code.index()].load(Ordering::Relaxed)
    }

    /// JSON object with one field per code (all codes, including zeros, so
    /// dashboards see a stable schema).
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Obj(
            ErrorCode::ALL
                .iter()
                .map(|c| (c.as_str().to_string(), Value::Num(self.get(*c) as f64)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_statuses_and_retryability() {
        assert_eq!(ErrorCode::BadRequest.status(), 400);
        assert_eq!(ErrorCode::RequestTimeout.status(), 408);
        assert_eq!(ErrorCode::DeadlineExceeded.status(), 504);
        assert_eq!(ErrorCode::Overloaded.status(), 503);
        assert_eq!(ErrorCode::StoreIo.status(), 503);
        assert_eq!(ErrorCode::Internal.status(), 500);
        for code in ErrorCode::ALL {
            let transient = matches!(code.status(), 408 | 503 | 504);
            assert_eq!(code.retryable(), transient, "{}", code.as_str());
        }
    }

    #[test]
    fn shed_response_carries_retry_after_and_retryable() {
        let response = ServeError::overloaded("queue full").to_response();
        assert_eq!(response.status, 503);
        assert!(response.retry_after.is_some());
        let body = String::from_utf8(response.body.clone()).unwrap();
        assert!(body.contains("\"retryable\":true"), "{body}");
        assert!(body.contains("\"code\":\"overloaded\""), "{body}");
        assert!(body.contains("\"retry_after_ms\":1000"), "{body}");
        let mut wire = Vec::new();
        response.write_to(&mut wire, true).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("retry-after: 1"), "{text}");
    }

    #[test]
    fn permanent_errors_have_no_retry_hint() {
        let response = ServeError::bad_request("nope").to_response();
        assert_eq!(response.status, 400);
        assert!(response.retry_after.is_none());
        let body = String::from_utf8(response.body).unwrap();
        assert!(body.contains("\"retryable\":false"), "{body}");
        assert!(!body.contains("retry_after_ms"), "{body}");
    }

    #[test]
    fn stats_count_per_code() {
        let stats = ErrorStats::default();
        stats.record(ErrorCode::Overloaded);
        stats.record(ErrorCode::Overloaded);
        stats.record(ErrorCode::Internal);
        assert_eq!(stats.get(ErrorCode::Overloaded), 2);
        assert_eq!(stats.get(ErrorCode::Internal), 1);
        assert_eq!(stats.get(ErrorCode::BadRequest), 0);
        let rendered = serde_json::to_string(&stats.to_value()).unwrap();
        assert!(rendered.contains("\"overloaded\":2"), "{rendered}");
    }
}
