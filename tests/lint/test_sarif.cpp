/**
 * @file
 * SARIF output fixtures: structural 2.1.0 checks on the rendered JSON
 * (no JSON library in the tool, so the tests assert on the exact
 * substrings a consumer keys on).
 */

#include <gtest/gtest.h>

#include "lint_test_util.hpp"
#include "sarif.hpp"

namespace icheck::lint
{
namespace
{

using testutil::lintSnippet;

std::vector<KeyedFinding>
sampleFindings()
{
    return lintSnippet("src/sim/x.cpp", R"cpp(
#include <mutex>
struct Counter
{
    std::mutex mu;
    long value = 0;
    void addA(long n)
    {
        std::lock_guard<std::mutex> guard(mu);
        value = value + n;
    }
    void addB(long n)
    {
        std::lock_guard<std::mutex> guard(mu);
        value = value + 2 * n;
    }
    void addRacy(long n)
    {
        value = value + 3 * n;
    }
};
)cpp");
}

TEST(Sarif, HasVersionSchemaAndDriver)
{
    const std::string sarif = renderSarif(sampleFindings());
    EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
    EXPECT_NE(sarif.find("\"name\":\"icheck-lint\""), std::string::npos);
}

TEST(Sarif, DeclaresEveryRegisteredRule)
{
    const std::string sarif = renderSarif({});
    for (const RuleInfo &info : ruleRegistry()) {
        const std::string id =
            std::string("{\"id\":\"") + info.id + "\"";
        EXPECT_NE(sarif.find(id), std::string::npos) << info.id;
    }
    // Empty runs still carry an empty results array.
    EXPECT_NE(sarif.find("\"results\":[]"), std::string::npos);
}

TEST(Sarif, ResultCarriesLocationLevelAndFingerprint)
{
    const auto findings = sampleFindings();
    ASSERT_FALSE(findings.empty());
    const std::string sarif = renderSarif(findings);
    EXPECT_NE(sarif.find("\"ruleId\":\"L1\""), std::string::npos);
    EXPECT_NE(sarif.find("\"level\":\"warning\""), std::string::npos);
    EXPECT_NE(sarif.find("\"uri\":\"src/sim/x.cpp\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\":19"), std::string::npos);
    EXPECT_NE(sarif.find("\"icheckLintKey/v1\""), std::string::npos);
}

TEST(Sarif, EscapesMessageText)
{
    KeyedFinding entry;
    entry.finding.rule = Rule::L1;
    entry.finding.file = "src/a\"b.cpp";
    entry.finding.line = 3;
    entry.finding.message = "quote \" backslash \\ newline \n tab \t";
    entry.key = "L1\tsrc/a\"b.cpp\t0";
    const std::string sarif = renderSarif({entry});
    EXPECT_NE(sarif.find("quote \\\" backslash \\\\ newline \\n tab \\t"),
              std::string::npos);
    EXPECT_NE(sarif.find("\"uri\":\"src/a\\\"b.cpp\""),
              std::string::npos);
}

TEST(Sarif, RenderingIsDeterministic)
{
    const auto findings = sampleFindings();
    EXPECT_EQ(renderSarif(findings), renderSarif(findings));
}

} // namespace
} // namespace icheck::lint
