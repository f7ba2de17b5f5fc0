#ifndef ICHECK_CHECK_REPORT_JSON_HPP
#define ICHECK_CHECK_REPORT_JSON_HPP

/**
 * @file
 * Canonical JSON rendering of a campaign verdict.
 *
 * Exactly one function turns a DriverReport into bytes, and both report
 * producers — the one-shot CLI (`icheck check --json`) and the campaign
 * service (`icheck serve`) — call it. Byte-identical reports across the
 * two paths is a tested contract (the service merges sharded work back
 * into the same DriverReport the sequential driver computes, so the
 * rendered bytes must match for any jobs/shard count); keep this
 * renderer deterministic: fixed key order, fixed float formatting, no
 * locale dependence, no timestamps.
 */

#include <string>

#include "check/driver.hpp"

namespace icheck::check
{

/**
 * Render @p report as a single-line JSON object.
 *
 * `recordsDigest` folds every per-run checkpoint hash, output hash, and
 * instruction count into one CRC64, so two reports with equal rendered
 * bytes also agree on the full per-run raw data without embedding it.
 */
std::string renderReportJson(const DriverReport &report);

} // namespace icheck::check

#endif // ICHECK_CHECK_REPORT_JSON_HPP
