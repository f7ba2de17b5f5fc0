#ifndef ICHECK_LINT_SARIF_HPP
#define ICHECK_LINT_SARIF_HPP

/**
 * @file
 * SARIF 2.1.0 output for icheck-lint.
 *
 * One run, one tool (driver "icheck-lint"), every rule of the registry
 * under tool.driver.rules, and one result per reported finding. The
 * drift-tolerant baseline key doubles as the result's partial
 * fingerprint, so SARIF consumers (code-scanning UIs) track a finding
 * across unrelated edits exactly like the baseline does.
 */

#include <string>
#include <vector>

#include "linter.hpp"

namespace icheck::lint
{

/** Render @p findings as a complete SARIF 2.1.0 document. */
std::string renderSarif(const std::vector<KeyedFinding> &findings);

} // namespace icheck::lint

#endif // ICHECK_LINT_SARIF_HPP
