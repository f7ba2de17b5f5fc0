#include "sarif.hpp"

#include "support/json_writer.hpp"

namespace icheck::lint
{

std::string
renderSarif(const std::vector<KeyedFinding> &findings)
{
    JsonWriter json;
    json.beginObject()
        .key("$schema")
        .string("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")
        .key("version").string("2.1.0")
        .key("runs")
        .beginArray()
        .beginObject()
        .key("tool")
        .beginObject()
        .key("driver")
        .beginObject()
        .key("name").string("icheck-lint")
        .key("informationUri").string("https://example.invalid/icheck-lint")
        .key("version").string("1.0.0")
        .key("rules")
        .beginArray();
    for (const RuleInfo &info : ruleRegistry()) {
        json.beginObject()
            .key("id").string(info.id)
            .key("shortDescription")
            .beginObject()
            .key("text").string(info.summary)
            .endObject()
            .key("help")
            .beginObject()
            .key("text").string(info.hint)
            .endObject()
            .endObject();
    }
    json.endArray().endObject().endObject().key("results").beginArray();
    for (const KeyedFinding &entry : findings) {
        const Finding &finding = entry.finding;
        json.beginObject()
            .key("ruleId").string(ruleInfo(finding.rule).id)
            .key("level").string(severityName(finding.severity))
            .key("message")
            .beginObject()
            .key("text").string(finding.message)
            .endObject()
            .key("locations")
            .beginArray()
            .beginObject()
            .key("physicalLocation")
            .beginObject()
            .key("artifactLocation")
            .beginObject()
            .key("uri").string(finding.file)
            .endObject()
            .key("region")
            .beginObject()
            .key("startLine").int64(finding.line > 0 ? finding.line : 1)
            .endObject()
            .endObject()
            .endObject()
            .endArray()
            .key("partialFingerprints")
            .beginObject()
            .key("icheckLintKey/v1").hex16(fnv1a64(entry.key))
            .endObject()
            .endObject();
    }
    return json.endArray().endObject().endArray().endObject().take();
}

} // namespace icheck::lint
