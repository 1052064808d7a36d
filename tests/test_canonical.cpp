// Canonicalization invariants the solve service's cache keys rest on:
// serialize -> canonicalize round trips, hash stability, hash equality
// for stage-relabeled / processor-permuted isomorphic instances, and
// streamed keys equal to the fingerprint of the canonical text.
#include "service/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/rng.hpp"
#include "eval/evaluation.hpp"
#include "model/generator.hpp"
#include "model/serialize.hpp"

namespace prts::service {
namespace {

Instance small_het_instance() {
  std::vector<Task> tasks{{10.0, 2.0}, {4.0, 1.0}, {20.0, 0.0}};
  std::vector<Processor> procs{{3.0, 1e-8}, {1.0, 2e-8}, {2.0, 1e-8}};
  return Instance{TaskChain(std::move(tasks)),
                  Platform(std::move(procs), 1.0, 1e-5, 2)};
}

std::string canonical_text(const Instance& instance) {
  std::ostringstream out;
  write_instance_canonical(out, instance);
  return out.str();
}

TEST(CanonicalNumber, ShortestRoundTripForms) {
  EXPECT_EQ(canonical_number(1.0), "1");
  EXPECT_EQ(canonical_number(0.25), "0.25");
  EXPECT_EQ(canonical_number(-0.0), "0");
  EXPECT_EQ(canonical_number(1e-8), "1e-08");
  EXPECT_EQ(canonical_number(std::numeric_limits<double>::infinity()),
            "inf");
}

TEST(CanonicalHashing, HexRoundTrip) {
  const CanonicalHash hash = fingerprint("hello");
  const auto parsed = hash_from_hex(to_hex(hash));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, hash);
  EXPECT_FALSE(hash_from_hex("xyz").has_value());
  EXPECT_FALSE(hash_from_hex(std::string(32, 'g')).has_value());
}

TEST(CanonicalHashing, DistinguishesContentAndLength) {
  EXPECT_NE(fingerprint("a"), fingerprint("b"));
  EXPECT_NE(fingerprint("ab"), fingerprint("a"));
  EXPECT_EQ(fingerprint("ab"), fingerprint("ab"));
}

TEST(Canonicalize, SortsProcessorsAndRecordsInversePermutations) {
  const Instance instance = small_het_instance();
  const CanonicalInstance canonical = canonicalize(instance);

  const Platform& sorted = canonical.instance.platform;
  ASSERT_EQ(sorted.processor_count(), 3u);
  // Sorted by (speed, failure rate): speeds 1, 2, 3.
  EXPECT_EQ(sorted.speed(0), 1.0);
  EXPECT_EQ(sorted.speed(1), 2.0);
  EXPECT_EQ(sorted.speed(2), 3.0);

  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(canonical.to_canonical[canonical.to_original[c]], c);
    const Processor& original =
        instance.platform.processor(canonical.to_original[c]);
    EXPECT_EQ(original.speed, sorted.speed(c));
    EXPECT_EQ(original.failure_rate, sorted.failure_rate(c));
  }
}

TEST(Canonicalize, TextRoundTripsAndIsAFixedPoint) {
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  // The canonical text parses back to an instance whose canonical form
  // is byte-identical (canonicalization is idempotent).
  const std::string text = canonical_text(canonical.instance);
  ParseResult parsed = instance_from_text(text);
  ASSERT_TRUE(parsed) << parsed.error;
  const CanonicalInstance again = canonicalize(*parsed.instance);
  EXPECT_EQ(canonical_text(again.instance), text);
  EXPECT_EQ(again.instance_hash, canonical.instance_hash);
}

TEST(Canonicalize, HashIsDeterministicWithinARun) {
  const Instance instance = small_het_instance();
  EXPECT_EQ(canonicalize(instance).instance_hash,
            canonicalize(instance).instance_hash);
}

TEST(Canonicalize, GoldenHashPinsCrossRunStability) {
  // Pinned output of the fixed 128-bit fingerprint for one concrete
  // instance: fails if the hash function or the canonical text format
  // changes, which would silently invalidate warm-start cache files.
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  EXPECT_EQ(to_hex(canonical.instance_hash),
            "8ac2c71a6aae4058b362b3703a32503d");
}

TEST(Canonicalize, GoldenRequestAndBatchKeysPinCrossRunStability) {
  // Request and batch keys are what snapshots store and peers carry on
  // the wire: their bytes must not move either.
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  EXPECT_EQ(to_hex(request_key(canonical, "exact", solver::Bounds{})),
            "cfaaf031fcb4f221dfefd02c7291276a");
  solver::Bounds period;
  period.period_bound = 10.0;
  EXPECT_EQ(to_hex(request_key(canonical, "exact", period)),
            "cda9c11158763f0ce838575166916d9c");
  EXPECT_EQ(to_hex(batch_key(canonical, "exact")),
            "2caa44f862bbcbf3aea226434cade2fb");
}

/// An independent rendering of the canonical text — a stream and
/// std::to_chars, -0 written as 0 — as the reference for the bytes
/// every key must hash.
std::string reference_number(double value) {
  if (value == 0.0) value = 0.0;
  char buffer[64];
  const char* const end =
      std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, static_cast<std::size_t>(end - buffer));
}

std::string reference_text(const Instance& instance) {
  std::ostringstream out;
  out << "prts-instance v1\ntasks " << instance.chain.size() << "\n";
  for (const Task& task : instance.chain.tasks()) {
    out << reference_number(task.work) << " "
        << reference_number(task.out_size) << "\n";
  }
  const Platform& platform = instance.platform;
  out << "platform " << platform.processor_count() << " "
      << reference_number(platform.bandwidth()) << " "
      << reference_number(platform.link_failure_rate()) << " "
      << platform.max_replication() << "\n";
  for (const Processor& proc : platform.processors()) {
    out << reference_number(proc.speed) << " "
        << reference_number(proc.failure_rate) << "\n";
  }
  return out.str();
}

/// The streamed hashes of `canonical` equal the fingerprint of its
/// rendered text plus each key's suffix.
void expect_keys_hash_the_text(const CanonicalInstance& canonical,
                               const std::vector<solver::Bounds>& ladder) {
  const std::string text = reference_text(canonical.instance);
  ASSERT_EQ(canonical_text(canonical.instance), text);
  EXPECT_EQ(canonical.instance_hash, fingerprint(text));
  for (const std::string solver : {"exact", "heur-p+ls"}) {
    EXPECT_EQ(batch_key(canonical, solver),
              fingerprint(text + "solver " + solver + "\n"));
    for (const solver::Bounds& bounds : ladder) {
      EXPECT_EQ(request_key(canonical, solver, bounds),
                fingerprint(text + "solver " + solver + "\nbounds " +
                            reference_number(bounds.period_bound) + " " +
                            reference_number(bounds.latency_bound) + "\n"));
    }
  }
}

/// The instance text with stage labels: 'task <id> ...' lines under
/// increasing scrambled ids, written in a shuffled line order.
std::string labeled_text(const Instance& instance, Rng& rng) {
  const std::size_t n = instance.chain.size();
  std::vector<std::size_t> lines(n);
  std::iota(lines.begin(), lines.end(), std::size_t{0});
  std::shuffle(lines.begin(), lines.end(), rng);
  std::ostringstream out;
  out << "prts-instance v1\ntasks " << n << "\n";
  for (const std::size_t i : lines) {
    const Task& task = instance.chain.task(i);
    out << "task " << 1000 + 37 * static_cast<std::int64_t>(i) << " "
        << canonical_number(task.work) << " "
        << canonical_number(task.out_size) << "\n";
  }
  const std::string text = canonical_text(instance);
  out << text.substr(text.find("platform "));
  return out.str();
}

TEST(Canonicalize, StreamedKeysEqualTheFingerprintOfTheText) {
  Rng rng(20240917);
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 120; ++i) {
    // Section 8 instances (8.1 homogeneous, 8.2 heterogeneous), and
    // every third with real-valued costs, whose shortest forms are long.
    TaskChain chain = paper::chain(rng);
    Platform platform =
        i % 2 == 0 ? paper::hom_platform() : paper::het_platform(rng);
    if (i % 3 == 0) {
      std::vector<Task> tasks(chain.tasks().begin(), chain.tasks().end());
      for (Task& task : tasks) {
        task.work = rng.uniform_real(0.5, 100.0);
        task.out_size = rng.uniform_real(0.0, 10.0);
      }
      std::vector<Processor> procs(platform.processors().begin(),
                                   platform.processors().end());
      for (Processor& proc : procs) {
        proc.failure_rate = rng.uniform_real(1e-9, 1e-7);
      }
      chain = TaskChain(std::move(tasks));
      platform = Platform(std::move(procs), platform.bandwidth(),
                          platform.link_failure_rate(),
                          platform.max_replication());
    }
    const Instance instance{chain, platform};
    const CanonicalInstance canonical = canonicalize(instance);
    const double work = chain.work_sum(0, chain.size() - 1);
    const std::vector<solver::Bounds> ladder{
        solver::Bounds{},
        solver::Bounds{rng.uniform_real(1.0, work), inf},
        solver::Bounds{rng.uniform_real(1.0, work),
                       rng.uniform_real(work, 3.0 * work)}};
    expect_keys_hash_the_text(canonical, ladder);

    // Processor-permuted: the same canonical text, so the same keys.
    std::vector<Processor> procs(platform.processors().begin(),
                                 platform.processors().end());
    std::shuffle(procs.begin(), procs.end(), rng);
    const CanonicalInstance permuted = canonicalize(
        Instance{chain, Platform(std::move(procs), platform.bandwidth(),
                                 platform.link_failure_rate(),
                                 platform.max_replication())});
    EXPECT_EQ(permuted.instance_hash, canonical.instance_hash);
    expect_keys_hash_the_text(permuted, ladder);
    EXPECT_EQ(request_key(permuted, "exact", ladder[2]),
              request_key(canonical, "exact", ladder[2]));

    // Stage labels: parsed from labeled text, the same keys again.
    ParseResult labeled = instance_from_text(labeled_text(instance, rng));
    ASSERT_TRUE(labeled) << labeled.error;
    const CanonicalInstance relabeled = canonicalize(*labeled.instance);
    EXPECT_EQ(relabeled.instance_hash, canonical.instance_hash);
    EXPECT_EQ(batch_key(relabeled, "heur-p+ls"),
              batch_key(canonical, "heur-p+ls"));
  }
}

TEST(Canonicalize, StreamedKeysEqualTheFingerprintOfTheTextOnEdgeValues) {
  // -0, infinities, the smallest subnormal, a non-terminating binary
  // fraction, a wide integer and the first exponent-form integer.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Task> tasks{{5e-324, -0.0},
                          {0.1, inf},
                          {123456789.0, 1e21},
                          {1e21, 0.1},
                          {inf, 5e-324}};
  std::vector<Processor> procs{{0.1, inf},
                               {5e-324, -0.0},
                               {inf, 0.1},
                               {123456789.0, 1e21},
                               {0.1, 5e-324}};
  const Instance instance{TaskChain(std::move(tasks)),
                          Platform(std::move(procs), 1e21, -0.0, 3)};
  const CanonicalInstance canonical = canonicalize(instance);
  expect_keys_hash_the_text(canonical, {solver::Bounds{-0.0, inf},
                                        solver::Bounds{5e-324, 1e21},
                                        solver::Bounds{0.1, 123456789.0},
                                        solver::Bounds{inf, -0.0}});
  // -0 is written as 0, so it keys like +0.
  EXPECT_EQ(request_key(canonical, "exact", solver::Bounds{-0.0, inf}),
            request_key(canonical, "exact", solver::Bounds{0.0, inf}));
}

TEST(Canonicalize, ProcessorPermutedInstancesCollide) {
  const Instance instance = small_het_instance();
  // Every permutation of the processor list canonicalizes identically.
  std::vector<std::size_t> perm{0, 1, 2};
  const CanonicalHash reference = canonicalize(instance).instance_hash;
  do {
    std::vector<Processor> procs;
    for (const std::size_t u : perm) {
      procs.push_back(instance.platform.processor(u));
    }
    const Instance permuted{
        instance.chain,
        Platform(std::move(procs), instance.platform.bandwidth(),
                 instance.platform.link_failure_rate(),
                 instance.platform.max_replication())};
    const CanonicalInstance canonical = canonicalize(permuted);
    EXPECT_EQ(canonical.instance_hash, reference);
    EXPECT_EQ(canonical_text(canonical.instance),
              canonical_text(canonicalize(instance).instance));
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(Canonicalize, StageRelabeledInstancesCollide) {
  // The same chain written plain, labeled 0..n-1, and labeled with
  // arbitrary scrambled ids: one canonical hash.
  const std::string plain =
      "prts-instance v1\ntasks 3\n10 2\n4 1\n20 0\n"
      "platform 2 1 1e-05 2\n1 1e-08\n1 1e-08\n";
  const std::string relabeled =
      "prts-instance v1\ntasks 3\n"
      "task 700 20 0\ntask 13 4 1\ntask 5 10 2\n"
      "platform 2 1 1e-05 2\n1 1e-08\n1 1e-08\n";
  ParseResult a = instance_from_text(plain);
  ParseResult b = instance_from_text(relabeled);
  ASSERT_TRUE(a) << a.error;
  ASSERT_TRUE(b) << b.error;
  EXPECT_EQ(canonicalize(*a.instance).instance_hash,
            canonicalize(*b.instance).instance_hash);
}

TEST(Canonicalize, DifferentInstancesDoNotCollide) {
  const Instance instance = small_het_instance();
  Instance changed = instance;
  std::vector<Task> tasks(instance.chain.tasks().begin(),
                          instance.chain.tasks().end());
  tasks[1].work += 1.0;
  changed.chain = TaskChain(std::move(tasks));
  EXPECT_NE(canonicalize(changed).instance_hash,
            canonicalize(instance).instance_hash);
}

TEST(RequestKeys, SolverAndBoundsSeparateRequests) {
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  const solver::Bounds loose;
  solver::Bounds tight;
  tight.period_bound = 10.0;

  EXPECT_EQ(request_key(canonical, "exact", loose),
            request_key(canonical, "exact", loose));
  EXPECT_NE(request_key(canonical, "exact", loose),
            request_key(canonical, "heur-p", loose));
  EXPECT_NE(request_key(canonical, "exact", loose),
            request_key(canonical, "exact", tight));

  // The batch key folds bounds away but keeps the solver.
  EXPECT_EQ(batch_key(canonical, "exact"), batch_key(canonical, "exact"));
  EXPECT_NE(batch_key(canonical, "exact"), batch_key(canonical, "heur-p"));
}

TEST(LabelTranslation, MapsCanonicalSolutionsBackToRequestLabels) {
  const Instance instance = small_het_instance();
  const CanonicalInstance canonical = canonicalize(instance);

  // A mapping in canonical indices: interval 0 -> fastest two procs.
  Mapping canonical_mapping(IntervalPartition::single(3),
                            {{1, 2}});
  const MappingMetrics metrics =
      evaluate(canonical.instance.chain, canonical.instance.platform,
               canonical_mapping);
  const solver::Solution translated = to_original_labels(
      solver::Solution{canonical_mapping, metrics}, canonical);

  EXPECT_EQ(translated.mapping.validate(instance.platform), std::nullopt);
  EXPECT_EQ(translated.metrics, metrics);
  // The translated replicas are the original indices of canonical 1, 2.
  std::vector<std::size_t> expected{canonical.to_original[1],
                                    canonical.to_original[2]};
  std::sort(expected.begin(), expected.end());
  const auto procs = translated.mapping.processors(0);
  ASSERT_EQ(procs.size(), 2u);
  EXPECT_EQ(procs[0], expected[0]);
  EXPECT_EQ(procs[1], expected[1]);
}

}  // namespace
}  // namespace prts::service
