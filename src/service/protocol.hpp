#ifndef ICHECK_SERVICE_PROTOCOL_HPP
#define ICHECK_SERVICE_PROTOCOL_HPP

/**
 * @file
 * The JSONL request/response codec of the campaign service.
 *
 * One request per line, one response per line, matched by "id". The
 * parser is strict: every field is type-checked, unknown fields are
 * rejected by name, oversized lines are refused before parsing, and the
 * request id is validated as a store-key-safe token (the id becomes an
 * idempotency key in the result store, so it must be printable, short,
 * and newline-free).
 *
 * Request shapes:
 *   {"id":"r1","op":"check","app":"radix","runs":8,"scheme":"hw",
 *    "seed":1000,"input":"dev","rounding":true,"ignores":true,
 *    "cores":8}
 *   {"id":"s1","op":"stats"}
 *   {"id":"p1","op":"ping"}
 *   {"id":"d1","op":"drain"}
 *   {"id":"l1","op":"pull","from":0,"max":24576}
 *   {"id":"f1","op":"install","frames":"<hex CRC frames>"}
 *
 * `pull` and `install` are the fleet log-shipping pair: pull returns
 * raw store frames (hex-armored, whole frames only) starting at a
 * byte cursor, install idempotently appends shipped frames into the
 * local store. Both speak the result store's CRC frame format, so
 * every hop re-verifies integrity.
 *
 * Response status values: "ok", "error" (request-level failure),
 * "busy" (bounded queue full — explicit backpressure; retry later),
 * "draining" (daemon is shutting down and no longer accepts work).
 */

#include <cstdint>
#include <optional>
#include <string>

#include "check/checker.hpp"
#include "support/json_writer.hpp"

namespace icheck::service
{

/** What a parsed request asks the daemon to do. */
enum class RequestOp
{
    Check,   ///< Run (or resume) a determinism campaign.
    Stats,   ///< Report queue depths, throughput, dedup counters.
    Ping,    ///< Liveness probe.
    Drain,   ///< Finish in-flight work, then shut down gracefully.
    Pull,    ///< Ship store frames from a log cursor (fleet replica).
    Install, ///< Idempotently ingest shipped store frames (failover).
};

/** Validated payload of an op:"check" request. */
struct CheckRequest
{
    std::string app;
    int runs = 8;
    check::Scheme scheme = check::Scheme::HwInc;
    std::uint64_t seed = 1000;
    std::string input = "medium"; ///< dev | medium | large.
    bool rounding = true;
    bool ignores = true;
    int cores = 0; ///< 0 = the machine default.
};

/** Validated payload of an op:"pull" request. */
struct PullRequest
{
    std::uint64_t from = 0;         ///< Log byte cursor (frame boundary).
    std::uint32_t maxBytes = 24576; ///< Raw-frame budget per response.
};

/** Validated payload of an op:"install" request. */
struct InstallRequest
{
    std::string frames; ///< Raw (hex-decoded) frame bytes.
};

/** One validated request. */
struct Request
{
    std::string id;
    RequestOp op = RequestOp::Ping;
    CheckRequest check;     ///< Meaningful only when op == Check.
    PullRequest pull;       ///< Meaningful only when op == Pull.
    InstallRequest install; ///< Meaningful only when op == Install.
};

/** Outcome of parsing one line: a request, or an error with the id. */
struct ParsedLine
{
    std::optional<Request> request;

    /** Human-readable reason when request is empty. */
    std::string error;

    /** Best-effort id recovered from the line (may be empty). */
    std::string id;

    bool ok() const { return request.has_value(); }
};

/**
 * Parse and validate one JSONL request line. @p max_line_bytes bounds
 * the accepted payload size (0 = unlimited).
 */
ParsedLine parseRequestLine(const std::string &line,
                            std::size_t max_line_bytes = 0);

/**
 * Canonical identity of a check campaign: every knob that can change a
 * run record, excluding the run count (so campaigns over the same seed
 * base share per-run units) and the request id (so identical work
 * submitted under different ids deduplicates). Doubles as the store/
 * seen-set key prefix.
 */
std::string canonicalKey(const CheckRequest &request);

/** Store key of run @p run_index's record under @p canonical. */
std::string unitKey(const std::string &canonical, int run_index);

/** Store key of the campaign's replay log under @p canonical. */
std::string logKey(const std::string &canonical);

/** Store key of the response cached for request @p id. */
std::string responseKey(const std::string &id);

/// @name Response rendering (deterministic bytes, no timestamps).
/// @{
/**
 * A writer holding the open response object `{"id":...,"status":...`.
 * Every response leads with these two members, which lets the router
 * read a response's id from its prefix without parsing the rest.
 */
JsonWriter beginResponse(const std::string &id, const char *status);
std::string renderErrorResponse(const std::string &id,
                                const std::string &message);
std::string renderBusyResponse(const std::string &id,
                               std::size_t queue_depth);
std::string renderDrainingResponse(const std::string &id);
std::string renderPongResponse(const std::string &id);
std::string renderPullResponse(const std::string &id, std::uint64_t from,
                               std::uint64_t next, bool eof,
                               const std::string &frames_hex);
std::string renderInstallResponse(const std::string &id,
                                  std::uint64_t installed,
                                  std::uint64_t duplicates);
/// @}

/** Scheme name as the protocol spells it (hw | swinc | swtr). */
std::string schemeToken(check::Scheme scheme);

} // namespace icheck::service

#endif // ICHECK_SERVICE_PROTOCOL_HPP
