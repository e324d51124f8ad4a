/**
 * @file
 * The crash/recover skeleton of the durable control-plane entities
 * (CloudController, AttestationServer, PrivacyCa).
 *
 * Each of them journals its recoverable state to a write-ahead
 * StableStore, commits (fsync + checkpoint policy) at the end of every
 * mutating event, loses the un-fsynced tail on a crash, and on restart
 * replays snapshot + journal into empty state and checkpoints the
 * result. This class owns that machinery once: the store, the
 * checkpoint policy, the replay mute, the crash fence and the recovery
 * counters. An entity supplies only its state: one snapshot encoder,
 * one snapshot applier and one journal-record applier (both appliers
 * route each record kind through the same per-kind decoder), plus an
 * optional re-arm step for recovered in-flight work.
 *
 * The fence rule: every callback a crashable entity schedules goes
 * through its CrashFence, so work armed before a crash never runs on
 * the restarted node (DESIGN.md §12).
 */

#ifndef MONATT_SIM_DURABLE_ENTITY_H
#define MONATT_SIM_DURABLE_ENTITY_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/codec.h"
#include "sim/checkpoint_policy.h"
#include "sim/event_queue.h"
#include "sim/stable_store.h"

namespace monatt::sim
{

/** Durability settings of one entity (core::Cloud fills them from
 * CloudConfig). */
struct DurableConfig
{
    /**
     * Journal recoverable state and replay it on restart. Journal
     * appends cost zero simulated time and recovery runs only after a
     * crash, so clean-wire runs are byte-identical either way.
     */
    bool durable = true;

    /** Journal-compaction triggers (count / size / age); all axes 0 =
     * never checkpoint. */
    CheckpointPolicyConfig checkpointPolicy;

    /** Bound of the entity's receive-side dedup cache (FIFO). */
    std::size_t dedupCacheCapacity = 128;
};

/** Base of every durable entity: store, commit, crash fence, replay. */
class DurableEntity
{
  public:
    /** The entity's durable store (journal + checkpoints). */
    const StableStore &stableStore() const { return store; }

    /** Install the disk-failure model on the store (nullptr = clean
     * disk). Wired by core::Cloud when a fault plan is installed. */
    void setStorageFaults(const StorageFaultModel *model)
    {
        store.setFaultModel(model);
    }

    /** Journal replays completed. */
    std::uint64_t recoveries() const { return recoveries_; }

    /** Recoveries that had to heal a torn/rotted durable image. */
    std::uint64_t corruptRecoveries() const { return corruptRecoveries_; }

  protected:
    DurableEntity(EventQueue &eq, const std::string &nodeId,
                  DurableConfig config);
    virtual ~DurableEntity() = default;

    /** Full-state snapshot for checkpoints. */
    virtual Bytes snapshotState() const = 0;

    /** Load a snapshot into the empty post-crash state. */
    virtual void applySnapshot(const Bytes &snapshot) = 0;

    /** Apply one journal record on top of the state so far. */
    virtual void applyJournalRecord(const JournalRecord &rec) = 0;

    /** Re-drive recovered in-flight work; runs after replay and before
     * the closing checkpoint. */
    virtual void rearmRecoveredWork() {}

    /** Commit point at the end of every mutating event: fsync the
     * pending tail, then checkpoint if the policy says so. */
    virtual void commitJournal();

    bool durable() const { return cfg.durable; }

    /** Append one record; a no-op when durability is off or while
     * replaying. */
    void journal(std::uint16_t type, Bytes payload);

    /** Fsync the pending tail. @return true when records were synced. */
    bool syncJournal();

    /** Checkpoint when one of the policy's triggers fires. */
    void checkpointIfDue();

    /**
     * The recovery driver: replay the durable image (healing a torn or
     * rotted one to its verified prefix), apply snapshot then records
     * with journaling muted, re-arm recovered work, and checkpoint the
     * result so the journal restarts empty.
     */
    void recover();

    /** Apply a count-prefixed run of snapshot entries, one `apply`
     * call each. @return false when the run is cut short. */
    template <typename Apply>
    static bool
    applyEach(ByteReader &r, Apply apply)
    {
        auto count = r.getU32();
        if (!count)
            return false;
        for (std::uint32_t i = 0; i < count.value(); ++i) {
            if (!apply(r))
                return false;
        }
        return true;
    }

    /** A replicated follower healed its mirror outside recover(). */
    void noteCorruptRecovery() { ++corruptRecoveries_; }

    EventQueue &events;
    StableStore store;
    /** Bumped on every crash (and controller step-down). */
    CrashFence fence;
    bool replaying = false; //!< recover() in progress: journal muted.

  private:
    /** True when mutations are journaled: durable and not replaying. */
    bool journaling() const { return cfg.durable && !replaying; }

    DurableConfig cfg;
    CheckpointPolicy ckptPolicy;
    std::uint64_t recoveries_ = 0;
    std::uint64_t corruptRecoveries_ = 0;
};

} // namespace monatt::sim

#endif // MONATT_SIM_DURABLE_ENTITY_H
