#include "service/protocol.hpp"

#include <cctype>

#include "service/frame.hpp"
#include "service/json.hpp"

namespace icheck::service
{

namespace
{

constexpr std::size_t maxIdBytes = 128;

/** Request ids become store keys: printable ASCII, no quotes/newlines. */
bool
validId(const std::string &id)
{
    if (id.empty() || id.size() > maxIdBytes)
        return false;
    for (const char c : id) {
        if (!std::isprint(static_cast<unsigned char>(c)) || c == '"' ||
            c == '\\')
            return false;
    }
    return true;
}

std::optional<check::Scheme>
parseSchemeToken(const std::string &token)
{
    if (token == "hw")
        return check::Scheme::HwInc;
    if (token == "swinc")
        return check::Scheme::SwInc;
    if (token == "swtr")
        return check::Scheme::SwTr;
    return std::nullopt;
}

/** Fields accepted for each op; anything else is rejected by name. */
bool
knownField(RequestOp op, const std::string &key)
{
    if (key == "id" || key == "op")
        return true;
    switch (op) {
      case RequestOp::Check:
        return key == "app" || key == "runs" || key == "scheme" ||
               key == "seed" || key == "input" || key == "rounding" ||
               key == "ignores" || key == "cores";
      case RequestOp::Pull:
        return key == "from" || key == "max";
      case RequestOp::Install:
        return key == "frames";
      default:
        return false;
    }
}

ParsedLine
failParse(std::string id, std::string message)
{
    ParsedLine parsed;
    parsed.error = std::move(message);
    parsed.id = std::move(id);
    return parsed;
}

} // namespace

ParsedLine
parseRequestLine(const std::string &line, std::size_t max_line_bytes)
{
    if (max_line_bytes != 0 && line.size() > max_line_bytes)
        return failParse({}, "oversized request: " +
                                 std::to_string(line.size()) + " bytes (max " +
                                 std::to_string(max_line_bytes) + ")");

    std::string json_error;
    const auto root = parseJson(line, &json_error);
    if (!root.has_value())
        return failParse({}, "malformed JSON: " + json_error);
    if (!root->isObject())
        return failParse({}, "request must be a JSON object");

    const JsonValue *id_field = root->find("id");
    if (id_field == nullptr)
        return failParse({}, "missing required field 'id'");
    if (!id_field->isString() || !validId(id_field->text))
        return failParse(
            {}, "invalid 'id': need 1-128 printable chars without "
                "quotes or backslashes");
    const std::string id = id_field->text;

    const JsonValue *op_field = root->find("op");
    if (op_field == nullptr)
        return failParse(id, "missing required field 'op'");
    if (!op_field->isString())
        return failParse(id, "'op' must be a string");

    Request request;
    request.id = id;
    const std::string &op = op_field->text;
    if (op == "check")
        request.op = RequestOp::Check;
    else if (op == "stats")
        request.op = RequestOp::Stats;
    else if (op == "ping")
        request.op = RequestOp::Ping;
    else if (op == "drain")
        request.op = RequestOp::Drain;
    else if (op == "pull")
        request.op = RequestOp::Pull;
    else if (op == "install")
        request.op = RequestOp::Install;
    else
        return failParse(id, "unknown op '" + op + "'");

    for (const auto &[key, value] : root->members) {
        (void)value;
        if (!knownField(request.op, key))
            return failParse(id, "unknown field '" + key + "' for op '" +
                                     op + "'");
    }

    if (request.op == RequestOp::Pull) {
        if (const JsonValue *from = root->find("from")) {
            const auto value = from->asU64();
            if (!value.has_value())
                return failParse(
                    id, "'from' must be a non-negative integer");
            request.pull.from = *value;
        }
        if (const JsonValue *max = root->find("max")) {
            const auto value = max->asU64();
            if (!value.has_value() || *value < 64 ||
                *value > (1u << 20))
                return failParse(
                    id, "'max' must be an integer in [64, 1048576]");
            request.pull.maxBytes = static_cast<std::uint32_t>(*value);
        }
        return ParsedLine{std::move(request), {}, id};
    }
    if (request.op == RequestOp::Install) {
        const JsonValue *frames = root->find("frames");
        if (frames == nullptr)
            return failParse(id, "op 'install' requires field 'frames'");
        if (!frames->isString())
            return failParse(id, "'frames' must be a hex string");
        auto decoded = hexDecode(frames->text);
        if (!decoded.has_value())
            return failParse(id, "'frames' is not valid hex");
        request.install.frames = std::move(*decoded);
        return ParsedLine{std::move(request), {}, id};
    }
    if (request.op != RequestOp::Check)
        return ParsedLine{std::move(request), {}, id};

    CheckRequest &check = request.check;
    const JsonValue *app = root->find("app");
    if (app == nullptr)
        return failParse(id, "op 'check' requires field 'app'");
    if (!app->isString() || app->text.empty())
        return failParse(id, "'app' must be a non-empty string");
    check.app = app->text;

    if (const JsonValue *runs = root->find("runs")) {
        const auto value = runs->asU64();
        if (!value.has_value() || *value < 2 || *value > 4096)
            return failParse(id, "'runs' must be an integer in [2, 4096]");
        check.runs = static_cast<int>(*value);
    }
    if (const JsonValue *scheme = root->find("scheme")) {
        if (!scheme->isString())
            return failParse(id, "'scheme' must be a string");
        const auto parsed_scheme = parseSchemeToken(scheme->text);
        if (!parsed_scheme.has_value())
            return failParse(id, "unknown scheme '" + scheme->text +
                                     "' (hw | swinc | swtr)");
        check.scheme = *parsed_scheme;
    }
    if (const JsonValue *seed = root->find("seed")) {
        const auto value = seed->asU64();
        if (!value.has_value())
            return failParse(id,
                             "'seed' must be a non-negative integer");
        check.seed = *value;
    }
    if (const JsonValue *input = root->find("input")) {
        if (!input->isString() ||
            (input->text != "dev" && input->text != "medium" &&
             input->text != "large"))
            return failParse(
                id, "'input' must be one of dev | medium | large");
        check.input = input->text;
    }
    if (const JsonValue *rounding = root->find("rounding")) {
        if (!rounding->isBool())
            return failParse(id, "'rounding' must be a boolean");
        check.rounding = rounding->boolean;
    }
    if (const JsonValue *ignores = root->find("ignores")) {
        if (!ignores->isBool())
            return failParse(id, "'ignores' must be a boolean");
        check.ignores = ignores->boolean;
    }
    if (const JsonValue *cores = root->find("cores")) {
        const auto value = cores->asU64();
        if (!value.has_value() || *value < 1 || *value > 64)
            return failParse(id, "'cores' must be an integer in [1, 64]");
        check.cores = static_cast<int>(*value);
    }
    return ParsedLine{std::move(request), {}, id};
}

std::string
schemeToken(check::Scheme scheme)
{
    switch (scheme) {
      case check::Scheme::HwInc: return "hw";
      case check::Scheme::SwInc: return "swinc";
      case check::Scheme::SwTr:  return "swtr";
    }
    return "hw";
}

std::string
canonicalKey(const CheckRequest &request)
{
    // Key shape: app|input|scheme|seed|rounding|ignores|cores. The run
    // count is deliberately absent (units are per-run) and so is the
    // request id (identical work deduplicates across ids).
    std::string key = "check|";
    key += request.app;
    key += '|';
    key += request.input;
    key += '|';
    key += schemeToken(request.scheme);
    key += "|s";
    key += std::to_string(request.seed);
    key += request.rounding ? "|r1" : "|r0";
    key += request.ignores ? "|i1" : "|i0";
    key += "|c";
    key += std::to_string(request.cores);
    return key;
}

std::string
unitKey(const std::string &canonical, int run_index)
{
    return canonical + "#u" + std::to_string(run_index);
}

std::string
logKey(const std::string &canonical)
{
    return canonical + "#log";
}

std::string
responseKey(const std::string &id)
{
    return "resp#" + id;
}

JsonWriter
beginResponse(const std::string &id, const char *status)
{
    JsonWriter json;
    json.beginObject().key("id").string(id).key("status").string(status);
    return json;
}

std::string
renderErrorResponse(const std::string &id, const std::string &message)
{
    return beginResponse(id, "error")
        .key("error").string(message)
        .endObject().take();
}

std::string
renderBusyResponse(const std::string &id, std::size_t queue_depth)
{
    return beginResponse(id, "busy")
        .key("error").string("queue full")
        .key("queueDepth").uint64(queue_depth)
        .endObject().take();
}

std::string
renderDrainingResponse(const std::string &id)
{
    return beginResponse(id, "draining")
        .key("error").string("daemon is draining")
        .endObject().take();
}

std::string
renderPongResponse(const std::string &id)
{
    return beginResponse(id, "ok")
        .key("pong").boolean(true)
        .endObject().take();
}

std::string
renderPullResponse(const std::string &id, std::uint64_t from,
                   std::uint64_t next, bool eof,
                   const std::string &frames_hex)
{
    return beginResponse(id, "ok")
        .key("from").uint64(from)
        .key("next").uint64(next)
        .key("eof").boolean(eof)
        .key("frames").string(frames_hex)
        .endObject().take();
}

std::string
renderInstallResponse(const std::string &id, std::uint64_t installed,
                      std::uint64_t duplicates)
{
    return beginResponse(id, "ok")
        .key("installed").uint64(installed)
        .key("duplicates").uint64(duplicates)
        .endObject().take();
}

} // namespace icheck::service
