#include "controller/database.h"

#include <stdexcept>

#include "common/codec.h"

namespace monatt::controller
{

std::string
vmStatusName(VmStatus s)
{
    switch (s) {
      case VmStatus::Scheduling:
        return "scheduling";
      case VmStatus::Networking:
        return "networking";
      case VmStatus::Mapping:
        return "block_device_mapping";
      case VmStatus::Spawning:
        return "spawning";
      case VmStatus::Attesting:
        return "attestation";
      case VmStatus::Running:
        return "running";
      case VmStatus::Suspended:
        return "suspended";
      case VmStatus::Migrating:
        return "migrating";
      case VmStatus::Terminated:
        return "terminated";
      case VmStatus::Failed:
        return "failed";
    }
    return "unknown";
}

void
CloudDatabase::addServer(ServerRecord record)
{
    servers[record.id] = std::move(record);
}

ServerRecord *
CloudDatabase::server(const std::string &id)
{
    const auto it = servers.find(id);
    return it == servers.end() ? nullptr : &it->second;
}

const ServerRecord *
CloudDatabase::server(const std::string &id) const
{
    const auto it = servers.find(id);
    return it == servers.end() ? nullptr : &it->second;
}

std::vector<std::string>
CloudDatabase::serverIds() const
{
    std::vector<std::string> ids;
    ids.reserve(servers.size());
    for (const auto &[id, rec] : servers)
        ids.push_back(id);
    return ids;
}

void
CloudDatabase::addVm(VmRecord record)
{
    vms[record.vid] = std::move(record);
}

VmRecord *
CloudDatabase::vm(const std::string &vid)
{
    const auto it = vms.find(vid);
    return it == vms.end() ? nullptr : &it->second;
}

const VmRecord *
CloudDatabase::vm(const std::string &vid) const
{
    const auto it = vms.find(vid);
    return it == vms.end() ? nullptr : &it->second;
}

void
CloudDatabase::removeVm(const std::string &vid)
{
    vms.erase(vid);
}

std::vector<std::string>
CloudDatabase::vmIds() const
{
    std::vector<std::string> ids;
    ids.reserve(vms.size());
    for (const auto &[vid, rec] : vms)
        ids.push_back(vid);
    return ids;
}

void
CloudDatabase::allocate(const std::string &serverId, std::uint64_t ramMb,
                        std::uint64_t diskGb)
{
    ServerRecord *rec = server(serverId);
    if (!rec)
        throw std::out_of_range("allocate: unknown server " + serverId);
    rec->allocatedRamMb += ramMb;
    rec->allocatedDiskGb += diskGb;
}

void
CloudDatabase::release(const std::string &serverId, std::uint64_t ramMb,
                       std::uint64_t diskGb)
{
    ServerRecord *rec = server(serverId);
    if (!rec)
        return;
    rec->allocatedRamMb -= std::min(rec->allocatedRamMb, ramMb);
    rec->allocatedDiskGb -= std::min(rec->allocatedDiskGb, diskGb);
}

namespace
{

void
putProperties(ByteWriter &w,
              const std::vector<proto::SecurityProperty> &props)
{
    w.putU32(static_cast<std::uint32_t>(props.size()));
    for (proto::SecurityProperty p : props)
        w.putU8(static_cast<std::uint8_t>(p));
}

bool
getProperties(ByteReader &r, std::vector<proto::SecurityProperty> &props)
{
    auto count = r.getU32();
    if (!count || count.value() > 64)
        return false;
    for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto p = r.getU8();
        if (!p)
            return false;
        props.push_back(static_cast<proto::SecurityProperty>(p.value()));
    }
    return true;
}

} // namespace

Bytes
encodeVmRecord(const VmRecord &rec)
{
    ByteWriter w;
    w.reserve(128 + rec.image.size());
    w.putString(rec.vid);
    w.putString(rec.name);
    w.putString(rec.customer);
    w.putString(rec.imageName);
    w.putString(rec.flavorName);
    w.putU64(rec.imageSizeMb);
    w.putBytes(rec.image);
    w.putU32(rec.vcpus);
    w.putU64(rec.ramMb);
    w.putU64(rec.diskGb);
    putProperties(w, rec.properties);
    w.putString(rec.serverId);
    w.putU8(static_cast<std::uint8_t>(rec.status));
    const auto &stages = rec.launchTimer.stages();
    w.putU32(static_cast<std::uint32_t>(stages.size()));
    for (const sim::StageRecord &s : stages) {
        w.putString(s.name);
        w.putI64(s.start);
        w.putI64(s.end);
    }
    w.putU8(rec.launchTimer.hasOpenStage() ? 1 : 0);
    if (rec.launchTimer.hasOpenStage()) {
        w.putString(rec.launchTimer.openStageName());
        w.putI64(rec.launchTimer.openStageStart());
    }
    w.putI64(rec.launchAttempts);
    w.putI64(rec.launchedAt);
    return w.take();
}

Result<VmRecord>
decodeVmRecord(const Bytes &data)
{
    ByteReader r(data);
    VmRecord rec;
    auto vid = r.getString();
    auto name = r.getString();
    auto customer = r.getString();
    auto imageName = r.getString();
    auto flavorName = r.getString();
    auto imageSizeMb = r.getU64();
    auto image = r.getBytes();
    auto vcpus = r.getU32();
    auto ramMb = r.getU64();
    auto diskGb = r.getU64();
    if (!vid || !name || !customer || !imageName || !flavorName ||
        !imageSizeMb || !image || !vcpus || !ramMb || !diskGb)
        return Result<VmRecord>::error("bad vm record header");
    if (!getProperties(r, rec.properties))
        return Result<VmRecord>::error("bad vm record properties");
    auto serverId = r.getString();
    auto status = r.getU8();
    auto stageCount = r.getU32();
    if (!serverId || !status || !stageCount ||
        stageCount.value() > 4096)
        return Result<VmRecord>::error("bad vm record status");
    for (std::uint32_t i = 0; i < stageCount.value(); ++i) {
        auto sname = r.getString();
        auto start = r.getI64();
        auto end = r.getI64();
        if (!sname || !start || !end)
            return Result<VmRecord>::error("bad vm record stage");
        rec.launchTimer.record(sname.value(), start.value(), end.value());
    }
    auto hasOpen = r.getU8();
    if (!hasOpen)
        return Result<VmRecord>::error("bad vm record open stage flag");
    if (hasOpen.value() != 0) {
        auto oname = r.getString();
        auto ostart = r.getI64();
        if (!oname || !ostart)
            return Result<VmRecord>::error("bad vm record open stage");
        rec.launchTimer.beginStage(oname.value(), ostart.value());
    }
    auto launchAttempts = r.getI64();
    auto launchedAt = r.getI64();
    if (!launchAttempts || !launchedAt || !r.atEnd())
        return Result<VmRecord>::error("bad vm record tail");
    rec.vid = vid.value();
    rec.name = name.value();
    rec.customer = customer.value();
    rec.imageName = imageName.value();
    rec.flavorName = flavorName.value();
    rec.imageSizeMb = imageSizeMb.value();
    rec.image = image.value();
    rec.vcpus = vcpus.value();
    rec.ramMb = ramMb.value();
    rec.diskGb = diskGb.value();
    rec.serverId = serverId.value();
    rec.status = static_cast<VmStatus>(status.value());
    rec.launchAttempts = static_cast<int>(launchAttempts.value());
    rec.launchedAt = launchedAt.value();
    return Result<VmRecord>::ok(std::move(rec));
}

Bytes
encodeServerRecord(const ServerRecord &rec)
{
    ByteWriter w;
    w.putString(rec.id);
    w.putU32(static_cast<std::uint32_t>(rec.capabilities.size()));
    for (proto::SecurityProperty p : rec.capabilities)
        w.putU8(static_cast<std::uint8_t>(p));
    w.putU64(rec.totalRamMb);
    w.putU64(rec.totalDiskGb);
    w.putU64(rec.allocatedRamMb);
    w.putU64(rec.allocatedDiskGb);
    // Appended after the original release; written only when set so
    // records for healthy servers stay byte-identical to the frozen
    // layout (and old journals decode via the optional-tail read).
    if (rec.quarantined)
        w.putU8(1);
    return w.take();
}

Result<ServerRecord>
decodeServerRecord(const Bytes &data)
{
    ByteReader r(data);
    ServerRecord rec;
    auto id = r.getString();
    auto capCount = r.getU32();
    if (!id || !capCount || capCount.value() > 64)
        return Result<ServerRecord>::error("bad server record header");
    for (std::uint32_t i = 0; i < capCount.value(); ++i) {
        auto p = r.getU8();
        if (!p)
            return Result<ServerRecord>::error("bad server capability");
        rec.capabilities.insert(
            static_cast<proto::SecurityProperty>(p.value()));
    }
    auto totalRamMb = r.getU64();
    auto totalDiskGb = r.getU64();
    auto allocatedRamMb = r.getU64();
    auto allocatedDiskGb = r.getU64();
    if (!totalRamMb || !totalDiskGb || !allocatedRamMb || !allocatedDiskGb)
        return Result<ServerRecord>::error("bad server record tail");
    if (!r.atEnd()) {
        auto quarantined = r.getU8();
        if (!quarantined || !r.atEnd())
            return Result<ServerRecord>::error("bad server record tail");
        rec.quarantined = quarantined.value() != 0;
    }
    rec.id = id.value();
    rec.totalRamMb = totalRamMb.value();
    rec.totalDiskGb = totalDiskGb.value();
    rec.allocatedRamMb = allocatedRamMb.value();
    rec.allocatedDiskGb = allocatedDiskGb.value();
    return Result<ServerRecord>::ok(std::move(rec));
}

} // namespace monatt::controller
