#include "race/race_log.hpp"

#include <ostream>
#include <set>
#include <tuple>

#include "support/json_writer.hpp"

namespace icheck::race
{

namespace
{

Addr
granuleOf(Addr addr)
{
    return addr & ~Addr{7};
}

void
writeEndpoint(JsonWriter &json, const char *name, const AccessSite &site)
{
    json.key(name)
        .beginObject()
        .key("tid").int64(site.tid)
        .key("file").string(site.file)
        .key("line").int64(site.line)
        .endObject();
}

} // namespace

void
AccessAttributor::note(
    std::map<std::pair<ThreadId, Addr>, AccessSite> &table, ThreadId tid,
    Addr addr, unsigned width)
{
    AccessSite site;
    site.tid = tid;
    if (machine.accessSiteFile() != nullptr) {
        site.file = machine.accessSiteFile();
        site.line = machine.accessSiteLine();
    }
    const Addr first = granuleOf(addr);
    const Addr last = granuleOf(addr + width - 1);
    table[{tid, first}] = site;
    if (last != first)
        table[{tid, last}] = std::move(site);
}

void
AccessAttributor::onStore(const sim::StoreEvent &event)
{
    if (event.domain != sim::CostDomain::Native)
        return; // instrumentation stores have no app call site
    note(writes, event.tid, event.addr, event.width);
}

void
AccessAttributor::onLoad(const sim::LoadEvent &event)
{
    note(reads, event.tid, event.addr, event.width);
}

AccessSite
AccessAttributor::lastWrite(ThreadId tid, Addr granule) const
{
    const auto it = writes.find({tid, granule});
    return it != writes.end() ? it->second : AccessSite{"", 0, tid};
}

AccessSite
AccessAttributor::lastRead(ThreadId tid, Addr granule) const
{
    const auto it = reads.find({tid, granule});
    return it != reads.end() ? it->second : AccessSite{"", 0, tid};
}

std::vector<AttributedRace>
attributeRaces(const RaceDetector &detector,
               const AccessAttributor &attributor,
               const sim::Machine &machine)
{
    std::vector<AttributedRace> attributed;
    attributed.reserve(detector.races().size());
    for (const RaceRecord &record : detector.races()) {
        AttributedRace race;
        race.record = record;
        race.symbol = symbolizeAddress(record.granule, machine);
        switch (record.kind) {
          case RaceKind::WriteWrite:
            race.first = attributor.lastWrite(record.first, record.granule);
            race.second =
                attributor.lastWrite(record.second, record.granule);
            break;
          case RaceKind::ReadWrite:
            race.first = attributor.lastRead(record.first, record.granule);
            race.second =
                attributor.lastWrite(record.second, record.granule);
            break;
          case RaceKind::WriteRead:
            race.first = attributor.lastWrite(record.first, record.granule);
            race.second =
                attributor.lastRead(record.second, record.granule);
            break;
        }
        attributed.push_back(std::move(race));
    }
    return attributed;
}

void
writeRaceLogJsonl(std::ostream &out, const std::string &app,
                  const std::vector<AttributedRace> &races)
{
    for (const AttributedRace &race : races) {
        JsonWriter json;
        json.beginObject()
            .key("app").string(app)
            .key("kind").string(raceKindName(race.record.kind))
            .key("symbol").string(race.symbol);
        writeEndpoint(json, "first", race.first);
        writeEndpoint(json, "second", race.second);
        out << json.endObject().take() << '\n';
    }
}

int
exportRaceLog(const check::ProgramFactory &factory,
              const sim::MachineConfig &config, int runs,
              std::uint64_t base_seed, const std::string &app,
              std::ostream &out)
{
    // Dedup key: the full record plus both attributed endpoints, so the
    // same race attributed to two different lines (e.g. reset vs update
    // writes) is reported for each line pair it actually manifested on.
    using Key = std::tuple<Addr, ThreadId, ThreadId, int, std::string,
                           int, std::string, int>;
    std::set<Key> seen;
    std::vector<AttributedRace> unique;
    for (int run = 0; run < runs; ++run) {
        sim::MachineConfig cfg = config;
        cfg.schedSeed = base_seed + static_cast<std::uint64_t>(run);
        sim::Machine machine(cfg);
        machine.setAccessSiteTracking(true);
        RaceDetector detector;
        AccessAttributor attributor(machine);
        machine.addListener(&detector);
        machine.addListener(&attributor);
        auto program = factory();
        machine.run(*program);
        for (AttributedRace &race :
             attributeRaces(detector, attributor, machine)) {
            Key key{race.record.granule, race.record.first,
                    race.record.second,
                    static_cast<int>(race.record.kind),
                    race.first.file, race.first.line,
                    race.second.file, race.second.line};
            if (seen.insert(std::move(key)).second)
                unique.push_back(std::move(race));
        }
    }
    writeRaceLogJsonl(out, app, unique);
    return static_cast<int>(unique.size());
}

} // namespace icheck::race
