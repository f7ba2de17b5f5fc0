/**
 * @file
 * Robustness fixtures: the linter must survive hostile lexical shapes
 * (raw strings, digraphs, deeply nested templates, truncated tokens)
 * and deterministic byte-level mutations without crashing, and must
 * produce identical findings when run twice over the same input.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "lint_test_util.hpp"

namespace icheck::lint
{
namespace
{

using testutil::lintSnippet;

/** Findings reduced to a comparable transcript. */
std::string
transcript(const std::vector<KeyedFinding> &findings)
{
    std::string out;
    for (const KeyedFinding &entry : findings) {
        out += entry.key;
        out += '|';
        out += std::to_string(entry.finding.line);
        out += '|';
        out += entry.finding.message;
        out += '\n';
    }
    return out;
}

/** Lint must not throw, and two runs must agree exactly. */
void
expectStable(const std::string &source)
{
    std::string first;
    std::string second;
    ASSERT_NO_THROW(
        first = transcript(lintSnippet("src/sim/fuzz.cpp", source)));
    ASSERT_NO_THROW(
        second = transcript(lintSnippet("src/sim/fuzz.cpp", source)));
    EXPECT_EQ(first, second);
}

const std::vector<std::string> &
corpus()
{
    static const std::vector<std::string> entries = {
        // Raw strings with tricky delimiters and embedded "code".
        "const char *s = R\"(unterminated-looking { ( \" )\";\n",
        "const char *s = R\"ab(nested )\" not the end )ab\";\n"
        "std::mutex mu; // after the raw string\n",
        "auto x = R\"delim()delim\";",
        // Digraphs.
        "int a<:3:> = <%1, 2, 3%>;\n",
        "%:include <mutex>\nint y = 0;\n",
        // Deeply nested templates.
        "std::map<int, std::vector<std::pair<std::string,\n"
        "    std::tuple<int, long, std::array<double, 4>>>>> deep;\n",
        "template <typename T, template <typename...> class C>\n"
        "struct Rebind { using type = C<T, T>; };\n",
        "bool cmp = a < b >> c > d;\n",
        // Truncated / unbalanced shapes.
        "struct Half {\n    std::mutex mu;\n    int x;\n",
        "void f() { std::lock_guard<std::mutex> g(",
        "class",
        "::",
        "\"",
        "'",
        "/*",
        "//",
        "R\"(",
        "#define",
        "template <",
        "a.b->c.",
        "&",
        "++",
        "x = ",
        // Mixed hostile soup.
        "struct S { std::mutex m; int v; void f() {\n"
        "  std::lock_guard<std::mutex> g(m); v = v + 1; } void h() {\n"
        "  v = v + 2; } void i() {\n"
        "  std::lock_guard<std::mutex> g(m); v = v + 3; } };\n",
        "#if 0\nstruct Fake { std::mutex m; };\n#endif\n"
        "int real = 0;\n",
    };
    return entries;
}

TEST(Fuzz, CorpusEntriesLintWithoutCrashingAndDeterministically)
{
    for (const std::string &entry : corpus())
        expectStable(entry);
}

TEST(Fuzz, EveryPrefixOfARealisticSourceIsSafe)
{
    const std::string source = R"cpp(
#include <mutex>
struct Counter
{
    std::mutex mu;
    long value = 0;
    void add(long n)
    {
        std::lock_guard<std::mutex> guard(mu);
        value = value + n; // icheck-lint: allow(L1): fixture
    }
    long *leak() { return &value; }
};
)cpp";
    for (std::size_t cut = 0; cut <= source.size(); ++cut)
        expectStable(source.substr(0, cut));
}

TEST(Fuzz, DeterministicByteMutationsNeverCrash)
{
    // xorshift64: reproducible mutation stream, no global RNG state.
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    const std::string base = R"cpp(
#include <mutex>
struct Bank
{
    std::mutex a;
    std::mutex b;
    long total = 0;
    void forward()
    {
        std::lock_guard<std::mutex> first(a);
        std::lock_guard<std::mutex> second(b);
        total = total + 1;
    }
    void backward()
    {
        std::lock_guard<std::mutex> second(b);
        std::lock_guard<std::mutex> first(a);
        total = total - 1;
    }
    long *expose() { return &total; }
};
)cpp";
    const char alphabet[] = "{}()<>;:&*=+-.\"'/\\ \n\tRL0x";
    for (int round = 0; round < 200; ++round) {
        std::string mutated = base;
        const int edits = 1 + static_cast<int>(next() % 4);
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = next() % mutated.size();
            switch (next() % 3) {
              case 0: // overwrite
                mutated[at] =
                    alphabet[next() % (sizeof alphabet - 1)];
                break;
              case 1: // delete
                mutated.erase(at, 1 + next() % 3);
                break;
              default: // insert
                mutated.insert(
                    at, 1, alphabet[next() % (sizeof alphabet - 1)]);
            }
            if (mutated.empty())
                mutated.push_back('{');
        }
        expectStable(mutated);
    }
}

TEST(Fuzz, MultiTuAnalysisIsStableUnderHostileInputs)
{
    std::vector<FileInput> files;
    int n = 0;
    for (const std::string &entry : corpus())
        files.push_back(
            {"src/sim/fuzz" + std::to_string(n++) + ".cpp", entry});
    LintConfig config;
    config.jobs = 4;
    LintRun first;
    LintRun second;
    ASSERT_NO_THROW(first = lintSources(files, config));
    ASSERT_NO_THROW(second = lintSources(files, config));
    ASSERT_EQ(first.findings.size(), second.findings.size());
    for (std::size_t i = 0; i < first.findings.size(); ++i)
        EXPECT_EQ(first.findings[i].key, second.findings[i].key);
}

} // namespace
} // namespace icheck::lint
