/**
 * @file
 * Durable control-plane recovery: scripted crash/restart of the
 * controller and pCA against the write-ahead journal, plus the
 * clean-wire A/B — a fault-free run with durability enabled must be
 * byte-identical to one with it disabled, because journal appends
 * cost zero simulated time and recovery code only runs after a crash.
 * Also pins the crash fence (a crashed node runs none of the work it
 * armed before the crash) and the one-applier-per-record-kind rule
 * (snapshot replay and journal replay rebuild identical state).
 */

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "core/cloud.h"
#include "crypto/sha256.h"
#include "server/catalog.h"

namespace monatt::core
{
namespace
{

struct CleanTrace
{
    std::string digest;
    std::size_t reportCount = 0;
    std::size_t eventsExecuted = 0;
    SimTime endTime = 0;
};

CleanTrace
runCleanScenario(bool durable)
{
    CloudConfig cfg;
    cfg.numServers = 3;
    cfg.seed = 555777;
    cfg.computeThreads = 1;
    cfg.durableControlPlane = durable;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    std::vector<std::string> vids;
    for (int i = 0; i < 3; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        EXPECT_TRUE(vid.isOk()) << vid.errorMessage();
        if (vid.isOk())
            vids.push_back(vid.take());
    }
    for (auto &r :
         cloud.attestMany(customer, vids, proto::allProperties()))
        EXPECT_TRUE(r.isOk()) << r.errorMessage();
    cloud.runFor(seconds(1));

    crypto::Sha256 digest;
    for (const VerifiedReport &r : customer.reports())
        digest.update(r.report.encode());
    CleanTrace trace;
    trace.digest = toHex(digest.digest());
    trace.reportCount = customer.reports().size();
    trace.eventsExecuted = cloud.events().executed();
    trace.endTime = cloud.events().now();
    return trace;
}

TEST(RecoveryTest, CleanWireByteIdenticalWithDurabilityOnOrOff)
{
    const CleanTrace durable = runCleanScenario(true);
    const CleanTrace volatileOnly = runCleanScenario(false);
    ASSERT_GT(durable.reportCount, 0u);
    EXPECT_EQ(durable.digest, volatileOnly.digest)
        << "journaling must not perturb fault-free behavior";
    EXPECT_EQ(durable.reportCount, volatileOnly.reportCount);
    EXPECT_EQ(durable.eventsExecuted, volatileOnly.eventsExecuted);
    EXPECT_EQ(durable.endTime, volatileOnly.endTime);
}

TEST(RecoveryTest, ControllerRestartPreservesDatabase)
{
    CloudConfig cfg;
    cfg.numServers = 3;
    cfg.seed = 20260806;
    cfg.computeThreads = 1;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    std::vector<std::string> vids;
    for (int i = 0; i < 2; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
        vids.push_back(vid.take());
    }
    const auto &db = cloud.controller().database();
    std::uint64_t allocatedBefore = 0;
    for (const std::string &id : db.serverIds())
        allocatedBefore += db.server(id)->allocatedRamMb;

    cloud.crashNode("cloud-controller");
    cloud.runFor(seconds(1));
    cloud.restartNode("cloud-controller");

    EXPECT_EQ(cloud.controller().stats().recoveries, 1u);
    for (const std::string &vid : vids) {
        const controller::VmRecord *rec = db.vm(vid);
        ASSERT_NE(rec, nullptr)
            << "journaled VmRecord lost across restart: " << vid;
        EXPECT_EQ(rec->status, controller::VmStatus::Running) << vid;
        EXPECT_FALSE(rec->serverId.empty()) << vid;
    }
    std::uint64_t allocatedAfter = 0;
    for (const std::string &id : db.serverIds())
        allocatedAfter += db.server(id)->allocatedRamMb;
    EXPECT_EQ(allocatedBefore, allocatedAfter)
        << "placement accounting must replay exactly";

    // The customer's first request after the outage still rides the
    // pre-crash channel the controller no longer holds; it burns its
    // retry budget, turns terminally Unreachable and resets the
    // channel. The next request handshakes fresh and succeeds — the
    // recovered controller serves attestations normally.
    auto first = cloud.attestOnce(customer, vids[0],
                                  proto::allProperties(), seconds(300));
    EXPECT_FALSE(first.isOk());
    auto second = cloud.attestOnce(customer, vids[0],
                                   proto::allProperties(), seconds(300));
    EXPECT_TRUE(second.isOk()) << second.errorMessage();
}

TEST(RecoveryTest, PrivacyCaRestartKeepsSerialsMonotone)
{
    CloudConfig cfg;
    cfg.numServers = 2;
    cfg.seed = 777333;
    cfg.computeThreads = 1;
    cfg.aikReuseLimit = 1; // Fresh AVK session (and cert) per round.
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    auto vid = cloud.launchVm(customer, "vm-0", "cirros", "small",
                              proto::allProperties());
    ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
    const std::string v = vid.take();
    for (int i = 0; i < 2; ++i) {
        auto r = cloud.attestOnce(customer, v, proto::allProperties());
        ASSERT_TRUE(r.isOk()) << r.errorMessage();
    }
    const std::uint64_t issuedBefore = cloud.privacyCa().issued();
    ASSERT_GT(issuedBefore, 0u);

    cloud.crashNode("privacy-ca");
    cloud.runFor(seconds(1));
    cloud.restartNode("privacy-ca");

    EXPECT_EQ(cloud.privacyCa().issued(), issuedBefore)
        << "the serial counter must replay from the journal, never "
           "restart from zero";

    // The next attestation needs a fresh certificate. The server's
    // first cert request rides its stale channel; only once the cert
    // retry budget is exhausted (well after the AS has already given
    // up on the measurement) does the server reset the channel, so
    // drain simulated time between rounds until a post-crash serial
    // appears. It must within a few rounds — and strictly above the
    // pre-crash ones.
    bool minted = false;
    for (int round = 0; round < 4 && !minted; ++round) {
        (void)cloud.attestOnce(customer, v, proto::allProperties(),
                               seconds(300));
        cloud.runFor(seconds(60)); // Let cert retries exhaust + reset.
        minted = cloud.privacyCa().issued() > issuedBefore;
    }
    EXPECT_TRUE(minted)
        << "restarted pCA never certified a fresh session";
    auto after = cloud.attestOnce(customer, v, proto::allProperties(),
                                  seconds(300));
    ASSERT_TRUE(after.isOk()) << after.errorMessage();
    EXPECT_GT(cloud.privacyCa().issued(), issuedBefore);
}

/** Counts datagrams a node hands to the network. */
class SendTap
{
  public:
    SendTap(net::Network &network, std::string node)
        : net(network), watched(std::move(node))
    {
        net.setAdversary(
            [this](const net::Envelope &env) -> std::optional<net::Envelope> {
                if (env.src == watched)
                    ++sent;
                return env;
            });
    }
    ~SendTap() { net.setAdversary(nullptr); }

    std::size_t sent = 0;

  private:
    net::Network &net;
    std::string watched;
};

TEST(RecoveryTest, CrashedAttestationServerRunsNoPreCrashWork)
{
    CloudConfig cfg;
    cfg.numServers = 1;
    cfg.seed = 4242;
    cfg.computeThreads = 1;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    auto vid = cloud.launchVm(customer, "vm-0", "cirros", "small",
                              proto::allProperties());
    ASSERT_TRUE(vid.isOk()) << vid.errorMessage();

    // Crash the AS right after it verified a measurement response,
    // while the report it is about to sign is still scheduled.
    attestation::AttestationServer &as = cloud.attestationServer();
    const std::uint64_t verified = as.stats().responsesVerified;
    customer.runtimeAttestCurrent(vid.value(), proto::allProperties());
    ASSERT_TRUE(cloud.runUntil(
        [&] { return as.stats().responsesVerified > verified; },
        seconds(60)));
    const std::uint64_t lsn = as.stableStore().lastDurableLsn();
    SendTap tap(cloud.network(), as.id());
    ASSERT_TRUE(cloud.crashNode(as.id()));
    cloud.runFor(msec(550));

    EXPECT_EQ(tap.sent, 0u) << "a crashed AS must not send";
    EXPECT_EQ(as.stableStore().lastDurableLsn(), lsn)
        << "a crashed AS must not sign and journal a report";
}

TEST(RecoveryTest, CrashedCloudServerRunsNoPreCrashWork)
{
    CloudConfig cfg;
    cfg.numServers = 1;
    cfg.seed = 4243;
    cfg.computeThreads = 1;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    server::CloudServer &srv = cloud.server(0);
    const std::uint64_t freeRam = srv.freeRamMb();
    const server::VmImage &img = server::image("cirros");
    const std::uint64_t launch = customer.requestLaunch(
        "vm-0", "cirros", "small", proto::allProperties(), img.content,
        img.sizeMb);

    // The LaunchVm has landed once the server reserves the flavor;
    // crash the server 50 ms into the spawn.
    ASSERT_TRUE(cloud.runUntil([&] { return srv.freeRamMb() < freeRam; },
                               seconds(60)));
    cloud.runFor(msec(50));
    {
        SendTap tap(cloud.network(), srv.id());
        ASSERT_TRUE(cloud.crashNode(srv.id()));
        cloud.runFor(seconds(60));
        EXPECT_EQ(tap.sent, 0u) << "a crashed server must not send";
    }
    EXPECT_EQ(srv.freeRamMb(), freeRam)
        << "a spawn cut off by the crash must release its reservation";

    // The controller's channel to the server died with the server's
    // session keys, and nothing on the launch path retransmits. A
    // controller restart re-handshakes and re-drives the interrupted
    // launch: with no ack inside the spawn grace it terminates the
    // half-made VM and fails the launch definitively. A new launch
    // (from a customer whose channel to the controller is fresh) then
    // lands on the restarted server.
    ASSERT_TRUE(cloud.restartNode(srv.id()));
    ASSERT_TRUE(cloud.crashNode("cloud-controller"));
    ASSERT_TRUE(cloud.restartNode("cloud-controller"));
    ASSERT_TRUE(cloud.runUntil(
        [&] {
            const LaunchOutcome *outcome = customer.launchOutcome(launch);
            return outcome && outcome->done;
        },
        seconds(300)));
    EXPECT_FALSE(customer.launchOutcome(launch)->ok);
    EXPECT_EQ(srv.freeRamMb(), freeRam);

    auto vid = cloud.launchVm(cloud.addCustomer("bob"), "vm-1", "cirros",
                              "small", proto::allProperties(),
                              seconds(300));
    ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
    EXPECT_TRUE(srv.hasVm(vid.value()));
}

/**
 * Run a scenario, crash and restart the three durable entities, and
 * return each one's post-recovery checkpoint (controller, AS, pCA).
 * everyRecords = 1 checkpoints after every commit, so recovery runs
 * through the snapshot appliers; 0 never checkpoints, so it runs
 * through the journal-record appliers.
 */
std::array<Bytes, 3>
recoveredSnapshots(std::size_t everyRecords,
                   std::array<std::uint64_t, 3> &replayed)
{
    CloudConfig cfg;
    cfg.numServers = 3;
    cfg.seed = 99123;
    cfg.computeThreads = 1;
    cfg.aikReuseLimit = 1;
    cfg.checkpointPolicy.everyRecords = everyRecords;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    std::vector<std::string> vids;
    for (int i = 0; i < 3; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        EXPECT_TRUE(vid.isOk()) << vid.errorMessage();
        if (vid.isOk())
            vids.push_back(vid.take());
    }
    for (int round = 0; round < 2; ++round) {
        for (auto &r :
             cloud.attestMany(customer, vids, proto::allProperties()))
            EXPECT_TRUE(r.isOk()) << r.errorMessage();
    }

    const std::array<std::string, 3> nodes{
        "cloud-controller", "attestation-server", "privacy-ca"};
    for (const std::string &node : nodes)
        EXPECT_TRUE(cloud.crashNode(node));
    for (const std::string &node : nodes)
        EXPECT_TRUE(cloud.restartNode(node));

    const std::array<const sim::StableStore *, 3> stores{
        &cloud.controller().stableStore(),
        &cloud.attestationServer().stableStore(),
        &cloud.privacyCa().stableStore()};
    std::array<Bytes, 3> snapshots;
    for (std::size_t i = 0; i < stores.size(); ++i) {
        snapshots[i] = stores[i]->snapshotBytes();
        replayed[i] = stores[i]->stats().recordsReplayed;
    }
    return snapshots;
}

TEST(RecoveryTest, SnapshotReplayEqualsJournalReplay)
{
    std::array<std::uint64_t, 3> fromSnapshot{};
    std::array<std::uint64_t, 3> fromJournal{};
    const auto viaSnapshot = recoveredSnapshots(1, fromSnapshot);
    const auto viaJournal = recoveredSnapshots(0, fromJournal);
    for (std::size_t i = 0; i < viaSnapshot.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_GT(fromJournal[i], fromSnapshot[i])
            << "the journal-only run must rebuild from records";
        EXPECT_FALSE(viaJournal[i].empty());
        EXPECT_EQ(viaSnapshot[i], viaJournal[i])
            << "snapshot and journal appliers must agree";
    }
}

} // namespace
} // namespace monatt::core
