#include "sim/durable_entity.h"

#include "common/logging.h"

namespace monatt::sim
{

DurableEntity::DurableEntity(EventQueue &eq, const std::string &nodeId,
                             DurableConfig config)
    : events(eq), store(nodeId), cfg(config),
      ckptPolicy(config.checkpointPolicy)
{
}

void
DurableEntity::journal(std::uint16_t type, Bytes payload)
{
    if (journaling())
        store.append(type, std::move(payload));
}

bool
DurableEntity::syncJournal()
{
    if (store.pendingRecords() == 0)
        return false;
    store.sync();
    return true;
}

void
DurableEntity::checkpointIfDue()
{
    if (ckptPolicy.shouldCheckpoint(store, events.now())) {
        store.checkpoint(snapshotState());
        ckptPolicy.noteCheckpoint();
    }
}

void
DurableEntity::commitJournal()
{
    if (!journaling())
        return;
    syncJournal();
    checkpointIfDue();
}

void
DurableEntity::recover()
{
    ++recoveries_;
    replaying = true;
    StableStore::RecoveryImage image = store.replay();
    if (!image.clean) {
        // The disk came back damaged: replay healed it down to the
        // longest verified prefix. Whatever sat in the dropped suffix
        // is re-driven by retransmission (dedup caches only lose
        // idempotency, never correctness), never silently replayed.
        ++corruptRecoveries_;
        MONATT_LOG(Info, "durable")
            << store.node() << ": replay quarantined "
            << image.quarantinedRecords << " and truncated "
            << image.truncatedRecords << " corrupt journal records"
            << (image.snapshotQuarantined ? " (snapshot seal failed)"
                                          : "");
    }
    if (image.hasSnapshot)
        applySnapshot(image.snapshot);
    for (const JournalRecord &rec : image.records)
        applyJournalRecord(rec);
    replaying = false;

    rearmRecoveredWork();

    // Recovery doubles as a checkpoint: the recovered (and re-armed)
    // state becomes the new snapshot and the journal restarts empty.
    store.checkpoint(snapshotState());
    ckptPolicy.noteCheckpoint();
    MONATT_LOG(Info, "durable")
        << store.node() << ": recovered "
        << (image.hasSnapshot ? "a snapshot and " : "")
        << image.records.size() << " journal records";
}

} // namespace monatt::sim
