#include "check/report_json.hpp"

#include "hashing/crc64.hpp"
#include "support/json_writer.hpp"

namespace icheck::check
{

namespace
{

/** Fold one little-endian word into the digest. */
std::uint64_t
digestWord(std::uint64_t crc, std::uint64_t word)
{
    return hashing::Crc64::feedWordLe(crc, word);
}

std::uint64_t
recordsDigest(const DriverReport &report)
{
    std::uint64_t crc = 0;
    for (const RunRecord &record : report.records) {
        crc = digestWord(crc, record.checkpointHashes.size());
        for (const HashWord hash : record.checkpointHashes)
            crc = digestWord(crc, hash);
        crc = digestWord(crc, record.outputHash);
        crc = digestWord(crc, record.outputBytes);
        crc = digestWord(crc, record.result.checkpoints);
        crc = digestWord(crc, record.result.nativeInstrs);
        crc = digestWord(crc, record.result.overheadInstrs);
        crc = digestWord(crc, record.checkerOverheadInstrs);
    }
    return crc;
}

} // namespace

std::string
renderReportJson(const DriverReport &report)
{
    return JsonWriter()
        .beginObject()
        .key("app").string(report.app)
        .key("scheme").string(report.scheme)
        .key("runs").int64(report.runs)
        .key("deterministic").boolean(report.deterministic())
        .key("firstNdetRun").int64(report.firstNdetRun)
        .key("checkpointCountsMatch").boolean(report.checkpointCountsMatch)
        .key("detPoints").uint64(report.detPoints)
        .key("ndetPoints").uint64(report.ndetPoints)
        .key("detAtEnd").boolean(report.detAtEnd)
        .key("outputDeterministic").boolean(report.outputDeterministic)
        .key("recordsDigest").hex16(recordsDigest(report))
        .key("avgNativeInstrs").number(report.avgNativeInstrs)
        .key("avgOverheadInstrs").number(report.avgOverheadInstrs)
        .key("overheadFactor").number(report.overheadFactor())
        .endObject().take();
}

} // namespace icheck::check
