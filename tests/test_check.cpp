// Tests for the model checker (src/check/): fingerprint determinism and
// per-field sensitivity, exploration determinism, reduction soundness on
// n=3 worlds, and counterexample-trace round-trips. The mutation-kill side
// of the checker's own validation lives in tools/check_model.sh.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/explorer.h"
#include "check/fingerprint.h"
#include "check/trace.h"
#include "check/world.h"
#include "cluster/roles.h"
#include "fds/detector.h"
#include "fds/failure_log.h"
#include "fds/messages.h"

namespace cfds::check {
namespace {

// ---------------------------------------------------------------------------
// Fingerprint hashing

TEST(HasherTest, SameInputSameDigest) {
  Hasher a;
  Hasher b;
  a.mix(1);
  a.mix(2);
  b.mix(1);
  b.mix(2);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(HasherTest, OrderAndBoundariesMatter) {
  Hasher ab;
  ab.mix(1);
  ab.mix(2);
  Hasher ba;
  ba.mix(2);
  ba.mix(1);
  EXPECT_NE(ab.digest(), ba.digest());

  const std::uint8_t bytes[3] = {'a', 'b', 'c'};
  Hasher split;
  split.mix_bytes(bytes, 2);
  split.mix_bytes(bytes + 2, 1);
  Hasher whole;
  whole.mix_bytes(bytes, 3);
  EXPECT_NE(split.digest(), whole.digest());
}

std::uint64_t cluster_digest(const ClusterView& view) {
  Hasher h;
  StateFingerprinter::mix_cluster(h, view);
  return h.digest();
}

TEST(FingerprintTest, EveryClusterFieldIsSensitive) {
  ClusterView base;
  base.id = ClusterId(3);
  base.clusterhead = NodeId(1);
  base.members = {NodeId(2), NodeId(4)};
  base.deputies = {NodeId(2)};

  ClusterView v = base;
  v.id = ClusterId(4);
  EXPECT_NE(cluster_digest(base), cluster_digest(v));
  v = base;
  v.clusterhead = NodeId(2);
  EXPECT_NE(cluster_digest(base), cluster_digest(v));
  v = base;
  v.members.push_back(NodeId(5));
  EXPECT_NE(cluster_digest(base), cluster_digest(v));
  v = base;
  v.deputies = {NodeId(4)};
  EXPECT_NE(cluster_digest(base), cluster_digest(v));
  EXPECT_EQ(cluster_digest(base), cluster_digest(base));
}

std::uint64_t evidence_digest(const RoundEvidence& evidence) {
  Hasher h;
  StateFingerprinter::mix_evidence(h, evidence);
  return h.digest();
}

TEST(FingerprintTest, EveryEvidenceFieldIsSensitive) {
  RoundEvidence base;
  base.heartbeats.insert(NodeId(1));
  base.digest_from(NodeId(2)).insert(NodeId(1));

  RoundEvidence e;
  e.heartbeats = base.heartbeats;
  e.digest_from(NodeId(2)).insert(NodeId(1));
  e.ch_update_heard = true;
  EXPECT_NE(evidence_digest(base), evidence_digest(e));

  e.ch_update_heard = false;
  EXPECT_EQ(evidence_digest(base), evidence_digest(e));
  e.heartbeats.insert(NodeId(3));
  EXPECT_NE(evidence_digest(base), evidence_digest(e));

  e.heartbeats = base.heartbeats;
  e.digest_from(NodeId(2)).insert(NodeId(3));
  EXPECT_NE(evidence_digest(base), evidence_digest(e));

  // The slot table must be transparent to the fingerprint: recording the
  // same digests through a recycled slot (erase + re-add) hashes identically
  // to recording them fresh.
  RoundEvidence recycled;
  recycled.heartbeats.insert(NodeId(1));
  recycled.digest_from(NodeId(7)).insert(NodeId(8));
  recycled.erase_digest(NodeId(7));
  recycled.digest_from(NodeId(2)).insert(NodeId(1));
  EXPECT_EQ(evidence_digest(base), evidence_digest(recycled));
}

std::uint64_t log_digest(const FailureLog& log) {
  Hasher h;
  StateFingerprinter::mix_failure_log(h, log);
  return h.digest();
}

TEST(FingerprintTest, FailureLogEntriesAreSensitive) {
  FailureLog base;
  ASSERT_TRUE(base.record(
      NodeId(4), {SimTime::millis(100), /*epoch=*/2, NodeId(1)}));

  FailureLog extra;
  ASSERT_TRUE(extra.record(
      NodeId(4), {SimTime::millis(100), /*epoch=*/2, NodeId(1)}));
  EXPECT_EQ(log_digest(base), log_digest(extra));
  ASSERT_TRUE(extra.record(
      NodeId(5), {SimTime::millis(100), /*epoch=*/2, NodeId(1)}));
  EXPECT_NE(log_digest(base), log_digest(extra));

  FailureLog other_reporter;
  ASSERT_TRUE(other_reporter.record(
      NodeId(4), {SimTime::millis(100), /*epoch=*/2, NodeId(2)}));
  EXPECT_NE(log_digest(base), log_digest(other_reporter));

  // Entry::epoch and Entry::learned_at are FP-EXEMPT (fingerprint.cpp): no
  // protocol decision reads them back, so they must NOT split states.
  FailureLog other_epoch;
  ASSERT_TRUE(other_epoch.record(
      NodeId(4), {SimTime::millis(200), /*epoch=*/3, NodeId(1)}));
  EXPECT_EQ(log_digest(base), log_digest(other_epoch));
}

std::uint64_t payload_digest(const Payload& payload) {
  Hasher h;
  StateFingerprinter::mix_payload(h, payload);
  return h.digest();
}

TEST(FingerprintTest, PayloadContentIsSensitive) {
  HeartbeatPayload base;
  base.sender = NodeId(2);

  HeartbeatPayload other_sender;
  other_sender.sender = NodeId(3);
  EXPECT_NE(payload_digest(base), payload_digest(other_sender));

  HeartbeatPayload unmarked;
  unmarked.sender = NodeId(2);
  unmarked.marked = false;
  EXPECT_NE(payload_digest(base), payload_digest(unmarked));

  HeartbeatPayload same;
  same.sender = NodeId(2);
  EXPECT_EQ(payload_digest(base), payload_digest(same));
}

// ---------------------------------------------------------------------------
// Exploration

CheckOptions small_world() {
  CheckOptions opts;
  opts.nodes = 3;
  opts.epochs = 2;
  return opts;
}

TEST(ExplorerTest, ExplorationIsDeterministic) {
  CheckOptions opts = small_world();
  opts.max_drops = 1;
  ExploreLimits limits;
  const ExploreResult a = explore(opts, limits);
  const ExploreResult b = explore(opts, limits);
  EXPECT_FALSE(a.counterexample.has_value());
  EXPECT_GT(a.unique_states, 0u);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.pruned_runs, b.pruned_runs);
  EXPECT_EQ(a.unique_states, b.unique_states);
}

TEST(ExplorerTest, StateBudgetIsHonoured) {
  CheckOptions opts = small_world();
  opts.max_drops = 2;
  const ExploreResult unbounded = explore(opts, ExploreLimits{});
  ASSERT_FALSE(unbounded.budget_exhausted);

  ExploreLimits limits;
  limits.max_states = 50;
  const ExploreResult capped = explore(opts, limits);
  EXPECT_TRUE(capped.budget_exhausted);
  // The budget is checked between runs, so the final run may overshoot by
  // the handful of states it visits — but exploration stops right there.
  EXPECT_GE(capped.unique_states, 50u);
  EXPECT_LT(capped.unique_states, unbounded.unique_states);
}

// The receiver-major reduction must not change the verdict: on clean n=3
// worlds both explorations are violation-free, and because states are
// fingerprinted only at barrier crossings (where commuting deliveries to
// different receivers have already merged), both modes must reach exactly
// the same crossing-state set.
TEST(ExplorerTest, ReductionPreservesTheViolationSet) {
  CheckOptions opts = small_world();
  opts.max_crashes = 1;
  opts.max_drops = 1;
  ExploreLimits limits;

  opts.reduction = true;
  const ExploreResult reduced = explore(opts, limits);
  opts.reduction = false;
  const ExploreResult full = explore(opts, limits);

  EXPECT_FALSE(reduced.counterexample.has_value());
  EXPECT_FALSE(full.counterexample.has_value());
  EXPECT_FALSE(reduced.budget_exhausted);
  EXPECT_FALSE(full.budget_exhausted);
  EXPECT_GT(reduced.unique_states, 0u);
  EXPECT_EQ(reduced.unique_states, full.unique_states);
}

// Exact exploration sizes of clean configs from tools/check_model.sh. Any
// change to the schedule the world drives (round order, crossings, fault
// points) or to what a fingerprint covers moves these numbers; a refactor
// that claims to keep the protocol's behaviour must keep them.
TEST(ExplorerTest, PinnedConfigsExploreExactlyTheKnownStateSpace) {
  struct Pinned {
    const char* name;
    CheckOptions opts;
    std::uint64_t runs, pruned, unique;
  };
  CheckOptions adaptive = small_world();
  adaptive.max_crashes = 1;
  adaptive.max_recoveries = 1;
  adaptive.max_drops = 2;
  adaptive.adaptive = true;
  CheckOptions checkpoint = small_world();
  checkpoint.epochs = 3;
  checkpoint.max_crashes = 1;
  checkpoint.max_recoveries = 1;
  checkpoint.checkpoint = true;
  checkpoint.checkpoint_interval = 1;
  CheckOptions unreduced = small_world();
  unreduced.max_crashes = 1;
  unreduced.max_drops = 1;
  unreduced.reduction = false;
  const Pinned pinned[] = {
      {"adaptive", adaptive, 9145, 7680, 8349},
      {"checkpoint interval 1", checkpoint, 715, 668, 462},
      {"no reduction", unreduced, 556, 396, 1093},
  };
  for (const Pinned& p : pinned) {
    const ExploreResult r = explore(p.opts, ExploreLimits{});
    EXPECT_FALSE(r.counterexample.has_value()) << p.name;
    EXPECT_FALSE(r.budget_exhausted) << p.name;
    EXPECT_EQ(r.runs, p.runs) << p.name;
    EXPECT_EQ(r.pruned_runs, p.pruned) << p.name;
    EXPECT_EQ(r.unique_states, p.unique) << p.name;
  }
}

TEST(ExplorerTest, ReplayRejectsAnExhaustedChoiceTrace) {
  CheckOptions opts = small_world();
  opts.max_drops = 1;
  const ReplayOutcome outcome = replay(opts, {});
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_FALSE(outcome.violation.has_value());
}

// ---------------------------------------------------------------------------
// Trace serialization

CheckTrace sample_trace() {
  CheckTrace trace;
  trace.options.nodes = 4;
  trace.options.deputies = 1;
  trace.options.epochs = 3;
  trace.options.max_crashes = 1;
  trace.options.max_recoveries = 1;
  trace.options.max_drops = 2;
  trace.options.checkpoint = true;
  trace.options.checkpoint_interval = 1;
  trace.options.reduction = false;
  trace.mutation = "skip_incarnation_bump";
  trace.choices = {{ChoiceKind::kFault, 3, 1, 0, 0},
                   {ChoiceKind::kDrop, 2, 0, 1, 2},
                   {ChoiceKind::kOrder, 4, 2, 7, 1}};
  Violation v;
  v.invariant = "I-V4";
  v.detail = "heartbeat from node 0 carries incarnation 0, world count is 1";
  v.epoch = 1;
  v.barrier = 2;
  trace.violation = v;
  trace.fault_events = {{false, NodeId(0), 300000}, {true, NodeId(0), 700000}};
  return trace;
}

TEST(CheckTraceTest, JsonlRoundTrip) {
  const CheckTrace trace = sample_trace();
  std::string error;
  const auto parsed = parse_jsonl(to_jsonl(trace), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(to_jsonl(*parsed), to_jsonl(trace));
  EXPECT_EQ(parsed->mutation, "skip_incarnation_bump");
  ASSERT_EQ(parsed->choices.size(), 3u);
  EXPECT_EQ(parsed->choices[1].kind, ChoiceKind::kDrop);
  ASSERT_TRUE(parsed->violation.has_value());
  EXPECT_EQ(parsed->violation->invariant, "I-V4");
  ASSERT_EQ(parsed->fault_events.size(), 2u);
  EXPECT_TRUE(parsed->fault_events[1].recover);
}

TEST(CheckTraceTest, FaultPlanTailIsSelfContained) {
  const std::string plan = fault_plan_jsonl(sample_trace());
  EXPECT_NE(plan.find("\"fault_plan\":1"), std::string::npos);
  EXPECT_NE(plan.find("\"fault\":\"crash\""), std::string::npos);
  EXPECT_NE(plan.find("\"fault\":\"recover\""), std::string::npos);
  EXPECT_EQ(plan.find("\"choice\""), std::string::npos);
}

TEST(CheckTraceTest, ParseRejectsMalformedTraces) {
  std::string error;
  // No header line.
  EXPECT_FALSE(
      parse_jsonl("{\"choice\":{\"kind\":\"drop\",\"count\":2,\"chosen\":0,"
                  "\"a\":0,\"b\":0}}\n",
                  &error)
          .has_value());
  const std::string header = to_jsonl(sample_trace()).substr(
      0, to_jsonl(sample_trace()).find('\n') + 1);
  // A chosen index at or past the count cannot have been recorded.
  EXPECT_FALSE(parse_jsonl(header +
                               "{\"choice\":{\"kind\":\"drop\",\"count\":2,"
                               "\"chosen\":2,\"a\":0,\"b\":0}}\n",
                           &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  // Unknown choice kinds and line shapes are errors, not skips.
  EXPECT_FALSE(parse_jsonl(header +
                               "{\"choice\":{\"kind\":\"warp\",\"count\":2,"
                               "\"chosen\":0,\"a\":0,\"b\":0}}\n",
                           &error)
                   .has_value());
  EXPECT_FALSE(parse_jsonl(header + "{\"bogus\":1}\n", &error).has_value());
}

}  // namespace
}  // namespace cfds::check
