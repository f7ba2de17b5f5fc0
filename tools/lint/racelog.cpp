#include "racelog.hpp"

#include <istream>

#include "service/json.hpp"

namespace icheck::lint
{

namespace
{

using service::JsonValue;

/** The string member @p key of @p object, or "" if absent. */
std::string
stringMember(const JsonValue &object, const char *key)
{
    const JsonValue *value = object.find(key);
    return value != nullptr && value->isString() ? value->text : "";
}

/** The unsigned integer member @p key of @p object, or 0 if absent. */
int
intMember(const JsonValue &object, const char *key)
{
    const JsonValue *value = object.find(key);
    return value != nullptr ? static_cast<int>(value->asU64().value_or(0))
                            : 0;
}

bool
parseEndpoint(const JsonValue *object, RaceEndpoint &endpoint)
{
    if (object == nullptr || !object->isObject())
        return false;
    endpoint.file = stringMember(*object, "file");
    endpoint.line = intMember(*object, "line");
    endpoint.tid = intMember(*object, "tid");
    return !endpoint.file.empty() && endpoint.line > 0;
}

} // namespace

std::vector<DynamicRace>
readRaceLog(std::istream &in)
{
    std::vector<DynamicRace> races;
    std::string line;
    while (std::getline(in, line)) {
        const auto record = service::parseJson(line);
        if (!record.has_value() || !record->isObject())
            continue;
        DynamicRace race;
        race.app = stringMember(*record, "app");
        race.kind = stringMember(*record, "kind");
        race.symbol = stringMember(*record, "symbol");
        const bool first_ok =
            parseEndpoint(record->find("first"), race.first);
        const bool second_ok =
            parseEndpoint(record->find("second"), race.second);
        // A record is useful once either endpoint carries attribution;
        // unattributed endpoints keep line 0 and never match anything.
        if (!race.kind.empty() && (first_ok || second_ok))
            races.push_back(std::move(race));
    }
    return races;
}

bool
pathsMatch(const std::string &a, const std::string &b)
{
    if (a.empty() || b.empty())
        return false;
    const std::string &longer = a.size() >= b.size() ? a : b;
    const std::string &shorter = a.size() >= b.size() ? b : a;
    if (longer.size() == shorter.size())
        return longer == shorter;
    if (longer.compare(longer.size() - shorter.size(), shorter.size(),
                       shorter) != 0)
        return false;
    // Component boundary: "apps_fp.cpp" must not match "x_apps_fp.cpp".
    return longer[longer.size() - shorter.size() - 1] == '/';
}

} // namespace icheck::lint
