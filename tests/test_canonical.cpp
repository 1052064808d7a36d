// Canonicalization invariants the solve service's cache keys rest on:
// serialize -> canonicalize round trips, hash stability, hash equality
// for stage-relabeled / processor-permuted isomorphic instances, and
// keys that are equal exactly when the canonical texts are.
#include "service/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "eval/evaluation.hpp"
#include "model/generator.hpp"
#include "model/serialize.hpp"
#include "service/ring.hpp"

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

  // to_original is a permutation of the request's processor indices.
  std::vector<std::size_t> indices = canonical.to_original;
  std::sort(indices.begin(), indices.end());
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2}));
  for (std::size_t c = 0; c < 3; ++c) {
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
  // Pinned output of the fixed 128-bit key function for one concrete
  // instance: fails if the hash function or the key's words change.
  // Such a change must bump the frame protocol and PRTS1 versions with
  // the new pins, or warm-start files and older peers miss silently.
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  EXPECT_EQ(to_hex(canonical.instance_hash),
            "735fd998fc67df400c130a818c1a5861");
}

TEST(Canonicalize, GoldenRequestAndBatchKeysPinCrossRunStability) {
  // Request and batch keys are what snapshots store and peers carry on
  // the wire: their bytes must not move either. A request key's first
  // 16 digits (hi) are its batch key's.
  const CanonicalInstance canonical = canonicalize(small_het_instance());
  EXPECT_EQ(to_hex(request_key(canonical, "exact", solver::Bounds{})),
            "2a827b78fb81e87d3af11a9123e7e286");
  solver::Bounds period;
  period.period_bound = 10.0;
  EXPECT_EQ(to_hex(request_key(canonical, "exact", period)),
            "2a827b78fb81e87d8a16d53549934612");
  EXPECT_EQ(to_hex(batch_key(canonical, "exact")),
            "2a827b78fb81e87de56664f49365e2ef");
}

TEST(Canonicalize, EveryBoundOfABatchSharesItsHiAndOwner) {
  // The ring places a key by hi alone, so a request key's hi must be its
  // batch key's: one owner for a whole ladder under every membership
  // view, while lo still tells every pair of bounds apart.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<HashRing> rings;
  for (std::size_t members = 2; members <= 5; ++members) {
    std::vector<std::size_t> ranks(members);
    std::iota(ranks.begin(), ranks.end(), std::size_t{0});
    rings.emplace_back().rebuild(ranks);
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const Instance instance{paper::chain(rng), paper::hom_platform()};
    const CanonicalInstance canonical = canonicalize(instance);
    const double work = instance.chain.total_work();
    // +-0 and +-inf, then the 16-step ladder; -0 only as a period, as
    // it keys like +0.
    std::vector<double> latencies = {0.0, kInf, -kInf};
    for (std::size_t step = 0; step < 16; ++step) {
      latencies.push_back(work * (2.5 - 1.5 * static_cast<double>(step) / 15.0));
    }
    for (const char* solver_name : {"exact", "heur-p+ls"}) {
      const CanonicalHash batch = batch_key(canonical, solver_name);
      std::set<CanonicalHash> keys;
      std::size_t bounds_seen = 0;
      for (const double period : {-0.0, kInf, work * 0.45}) {
        for (const double latency : latencies) {
          const solver::Bounds bounds{period, latency};
          const CanonicalHash key = request_key(canonical, solver_name, bounds);
          EXPECT_EQ(key.hi, batch.hi);
          for (const HashRing& ring : rings) {
            EXPECT_EQ(ring.owner_of(key), ring.owner_of(batch));
          }
          keys.insert(key);
          ++bounds_seen;
        }
      }
      EXPECT_EQ(keys.size(), bounds_seen) << "seed " << seed;
    }
  }
}

/// An independent rendering of the canonical text — a stream and
/// std::to_chars, -0 written as 0 — the reference the keys are checked
/// against.
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

/// Keys and the reference texts they stand for, both ways: filing one
/// text under two keys, or two texts under one key, fails the test.
class KeyTextIndex {
 public:
  void add(const CanonicalHash& key, const std::string& text) {
    const auto by_text = keys_.emplace(text, key).first;
    EXPECT_EQ(by_text->second, key) << "one text, two keys:\n" << text;
    const auto by_key = texts_.emplace(key, text).first;
    EXPECT_EQ(by_key->second, text) << "one key, two texts";
  }

  std::size_t distinct() const { return keys_.size(); }

 private:
  std::map<std::string, CanonicalHash> keys_;
  std::map<CanonicalHash, std::string> texts_;
};

/// Files `instance`'s instance hash, its batch key for each solver and
/// its request key for each solver and bounds, each under its reference
/// text: the canonical text, then "solver <name>\n", then
/// "bounds <period> <latency>\n" for a request.
void file_keys(KeyTextIndex& index, const Instance& instance,
               const std::vector<std::string>& solvers,
               const std::vector<solver::Bounds>& ladder) {
  const CanonicalInstance canonical = canonicalize(instance);
  const std::string text = reference_text(canonical.instance);
  ASSERT_EQ(canonical_text(canonical.instance), text);
  index.add(canonical.instance_hash, text);
  for (const std::string& solver : solvers) {
    const std::string with_solver = text + "solver " + solver + "\n";
    index.add(batch_key(canonical, solver), with_solver);
    for (const solver::Bounds& bounds : ladder) {
      index.add(request_key(canonical, solver, bounds),
                with_solver + "bounds " +
                    reference_number(bounds.period_bound) + " " +
                    reference_number(bounds.latency_bound) + "\n");
    }
  }
}

/// `instance` with one field changed by `change`: each task's work and
/// output size, bandwidth, link failure rate, K, and each processor's
/// speed and failure rate, one variant per field the model accepts the
/// changed value in.
template <typename Change>
std::vector<Instance> field_variants(const Instance& instance,
                                     Change change) {
  const std::vector<Task> tasks(instance.chain.tasks().begin(),
                                instance.chain.tasks().end());
  const Platform& platform = instance.platform;
  const std::vector<Processor> procs(platform.processors().begin(),
                                     platform.processors().end());
  const double bandwidth = platform.bandwidth();
  const double link = platform.link_failure_rate();
  const unsigned k = platform.max_replication();
  std::vector<Instance> variants;
  const auto add = [&](std::vector<Task> t, std::vector<Processor> p,
                       double b, double l, unsigned r) {
    try {
      variants.push_back(Instance{TaskChain(std::move(t)),
                                  Platform(std::move(p), b, l, r)});
    } catch (const std::invalid_argument&) {
      // A value the model refuses in this field (say, work <= 0).
    }
  };
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    std::vector<Task> t = tasks;
    t[i].work = change(t[i].work);
    add(t, procs, bandwidth, link, k);
    t = tasks;
    t[i].out_size = change(t[i].out_size);
    add(t, procs, bandwidth, link, k);
  }
  add(tasks, procs, change(bandwidth), link, k);
  add(tasks, procs, bandwidth, change(link), k);
  add(tasks, procs, bandwidth, link, k + 1);
  for (std::size_t u = 0; u < procs.size(); ++u) {
    std::vector<Processor> p = procs;
    p[u].speed = change(p[u].speed);
    add(tasks, p, bandwidth, link, k);
    p = procs;
    p[u].failure_rate = change(p[u].failure_rate);
    add(tasks, p, bandwidth, link, k);
  }
  return variants;
}

TEST(Canonicalize, KeysAreEqualExactlyWhenCanonicalTextsAre) {
  // Keys hash the canonical values, not the text; they must still part
  // and meet exactly as the texts do. Section 8.1/8.2 instances (every
  // third with real-valued costs, whose shortest forms are long), each
  // field nudged one ulp, processor-permuted and stage-relabeled twins,
  // bound ladders with swapped bounds, solver names that are prefixes
  // of each other, and every value the text writes alike or apart: -0
  // and +0, NaNs of either sign with and without a payload, infinities
  // and the smallest subnormal.
  Rng rng(20261019);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::string> solvers{"exact", "heur-p", "heur-p+ls",
                                         std::string("heur-p\0", 7)};
  const auto ulp_up = [inf](double value) { return std::nextafter(value, inf); };
  KeyTextIndex index;
  for (int i = 0; i < 12; ++i) {
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
    const double work = chain.work_sum(0, chain.size() - 1);
    const double period = rng.uniform_real(1.0, work);
    const double latency = rng.uniform_real(work, 3.0 * work);
    const std::vector<solver::Bounds> ladder{
        solver::Bounds{},
        solver::Bounds{period, inf},
        solver::Bounds{period, latency},
        solver::Bounds{latency, period},
        solver::Bounds{ulp_up(period), latency},
        solver::Bounds{period, ulp_up(latency)}};
    file_keys(index, instance, solvers, ladder);
    for (const Instance& nudged : field_variants(instance, ulp_up)) {
      file_keys(index, nudged, {"exact"}, {ladder[2]});
    }

    // Processor-permuted and stage-relabeled: the same canonical text.
    std::vector<Processor> procs(platform.processors().begin(),
                                 platform.processors().end());
    std::shuffle(procs.begin(), procs.end(), rng);
    file_keys(index,
              Instance{chain, Platform(std::move(procs), platform.bandwidth(),
                                       platform.link_failure_rate(),
                                       platform.max_replication())},
              solvers, ladder);
    ParseResult labeled = instance_from_text(labeled_text(instance, rng));
    ASSERT_TRUE(labeled) << labeled.error;
    file_keys(index, *labeled.instance, solvers, ladder);
  }

  // Edge values in every field: -0, NaNs (where the model takes them),
  // infinities, the smallest subnormal, a non-terminating binary
  // fraction, a wide integer and the first exponent-form integer.
  const Instance edges{
      TaskChain({{5e-324, -0.0}, {0.1, inf}, {123456789.0, 1e21},
                 {1e21, nan}, {inf, 5e-324}}),
      Platform({{0.1, inf}, {5e-324, -0.0}, {inf, 0.1},
                {123456789.0, 1e21}, {0.25, 5e-324}},
               1e21, -0.0, 3)};
  const std::vector<double> specials{0.0,    -0.0,         nan,
                                     -nan,   std::nan("1"), -std::nan("1"),
                                     inf,    -inf,         5e-324,
                                     0.1,    ulp_up(0.1),  1e21};
  std::vector<solver::Bounds> pairs;
  for (const double p : specials) {
    for (const double l : specials) pairs.push_back(solver::Bounds{p, l});
  }
  file_keys(index, edges, solvers, pairs);
  for (const double value : specials) {
    const auto set = [value](double) { return value; };
    for (const Instance& changed : field_variants(edges, set)) {
      file_keys(index, changed, {"heur-p"}, {pairs[0]});
    }
  }
  EXPECT_GE(index.distinct(), 2500u);
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
