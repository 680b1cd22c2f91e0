#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

#include "datagen/dblp.h"
#include "datagen/natality.h"

namespace xbench {
namespace {

// Random streams: one per independent decision, so adding a decision never
// shifts the others.
enum Stream : uint64_t {
  kPermA = 1,
  kPermB,
  kOpType,
  kHotPick,
  kHotBuild,
  kBlockShuffle,
  kProbeSlice,
};

constexpr const char* kNatalityAttrs[] = {
    "Birth.age",     "Birth.tobacco", "Birth.prenatal",     "Birth.education",
    "Birth.marital", "Birth.sex",     "Birth.hypertension", "Birth.diabetes"};
constexpr const char* kRaces[] = {"White", "Black", "AmInd", "Asian"};
constexpr const char* kVenues[] = {"SIGMOD", "VLDB", "PODS"};
// Candidate attribute sets over the DBLP Author dimension: tables of a few
// dozen to a few hundred cells.
const std::vector<std::vector<std::string>> kDblpAttrSets = {
    {"Author.inst"},
    {"Author.city"},
    {"Author.inst", "Author.dom"},
    {"Author.city", "Author.country"},
    {"Author.dom", "Author.country"},
    {"Author.inst", "Author.country"}};

struct Subquery {
  std::string name;
  std::string agg;
  std::string where;
};

std::string Quote(const std::string& text) { return "\"" + text + "\""; }

/// The body of an EXPLAIN/TOPK line (everything after `{"id":N,`).
std::string QuestionBody(bool topk, const std::vector<Subquery>& subqueries,
                         const std::string& expr,
                         const std::vector<std::string>& attrs,
                         const std::string& options) {
  std::string out = "\"op\":";
  out += topk ? "\"TOPK\"" : "\"EXPLAIN\"";
  out += ",\"question\":{\"subqueries\":[";
  for (size_t i = 0; i < subqueries.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":" + Quote(subqueries[i].name) +
           ",\"agg\":" + Quote(subqueries[i].agg) +
           ",\"where\":" + Quote(subqueries[i].where) + "}";
  }
  out += "],\"expr\":" + Quote(expr) + ",\"direction\":\"high\"},\"attrs\":[";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(attrs[i]);
  }
  out += "],\"options\":{" + options + "}}";
  return out;
}

std::string WithId(uint64_t id, const std::string& body) {
  return "{\"id\":" + std::to_string(id) + "," + body;
}

/// A seeded bijection on [0, n): i -> (a*i + b) mod n with gcd(a, n) = 1.
/// Indices past n wrap (and then repeat).
uint64_t Permute(uint64_t seed, uint64_t stream, uint64_t n, uint64_t i) {
  uint64_t a = Mix(seed, kPermA, stream) % n;
  if (a == 0) a = 1;
  while (std::gcd(a, n) != 1) a = a + 1 == n ? 1 : a + 1;
  const uint64_t b = Mix(seed, kPermB, stream) % n;
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(a) * (i % n) + b) % n);
}

double Uniform(uint64_t bits) {
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

/// Candidate attribute subsets of the 8 natality attributes with 3..5
/// members, in increasing bitmask order (182 sets).
const std::vector<uint32_t>& NatalityAttrMasks() {
  static const std::vector<uint32_t> masks = [] {
    std::vector<uint32_t> out;
    for (uint32_t mask = 0; mask < 256; ++mask) {
      const int bits = __builtin_popcount(mask);
      if (bits >= 3 && bits <= 5) out.push_back(mask);
    }
    return out;
  }();
  return masks;
}

std::vector<std::string> NatalityAttrs(uint32_t mask) {
  std::vector<std::string> attrs;
  for (int b = 0; b < 8; ++b) {
    if (mask & (1u << b)) attrs.push_back(kNatalityAttrs[b]);
  }
  return attrs;
}

/// Q_Race shape: good vs poor APGAR inside one race (optionally narrowed
/// by sex and marital status).
std::vector<Subquery> QRace(const std::string& race, const std::string& sex,
                            const std::string& marital) {
  std::string base = "Birth.race = '" + race + "'";
  if (!sex.empty()) base += " AND Birth.sex = '" + sex + "'";
  if (!marital.empty()) base += " AND Birth.marital = '" + marital + "'";
  return {{"q1", "count(*)", "Birth.ap = 'good' AND " + base},
          {"q2", "count(*)", "Birth.ap = 'poor' AND " + base}};
}

/// Q_Marital shape: good/poor ratio of married vs unmarried mothers
/// (optionally inside one race and sex).
std::vector<Subquery> QMarital(const std::string& race,
                               const std::string& sex) {
  std::string extra;
  if (!race.empty()) extra += " AND Birth.race = '" + race + "'";
  if (!sex.empty()) extra += " AND Birth.sex = '" + sex + "'";
  return {{"q1", "count(*)",
           "Birth.ap = 'good' AND Birth.marital = 'married'" + extra},
          {"q2", "count(*)",
           "Birth.ap = 'poor' AND Birth.marital = 'married'" + extra},
          {"q3", "count(*)",
           "Birth.ap = 'good' AND Birth.marital = 'unmarried'" + extra},
          {"q4", "count(*)",
           "Birth.ap = 'poor' AND Birth.marital = 'unmarried'" + extra}};
}

const char* kQMaritalExpr = "(q1 / q2) / (q3 / q4)";

/// DBLP ratio question over two venues in one year window.
std::vector<Subquery> DblpVenues(const std::string& agg, int venue_pair,
                                 int year, int width) {
  const int v1 = venue_pair / 2;
  const int v2 = (v1 + 1 + venue_pair % 2) % 3;
  auto where = [&](int v) {
    return "Publication.venue = '" + std::string(kVenues[v]) +
           "' AND Publication.year >= " + std::to_string(year) +
           " AND Publication.year <= " + std::to_string(year + width);
  };
  return {{"q1", agg, where(v1)}, {"q2", agg, where(v2)}};
}

const char* kDistinctPubs = "count(distinct Publication.pubid)";
const char* kDblpExpr = "q1 / (q2 + 1)";

/// The n-th of a seeded sequence of cell-additive count(distinct pubid)
/// questions. The sequence cycles through the 6 attribute sets, so every
/// seed weights them alike, and draws the venue pair (6), first year (15)
/// and window width (3) from a seeded permutation: the first 1620 are
/// distinct.
std::string DblpDistinctBody(uint64_t seed, uint64_t stream, uint64_t n,
                             bool topk, const std::string& options) {
  uint64_t k = Permute(seed, stream, 270, n / 6);
  const int width = 3 + 2 * static_cast<int>(k % 3);
  k /= 3;
  const int year = 1990 + static_cast<int>(k % 15);
  const int pair = static_cast<int>(k / 15);
  return QuestionBody(topk, DblpVenues(kDistinctPubs, pair, year, width),
                      kDblpExpr, kDblpAttrSets[n % 6], options);
}

/// The n-th of a seeded sequence of count(*) questions (not cell-additive:
/// answered through the exact program-P rescore), built like
/// DblpDistinctBody over 6 venue pairs x 23 first years x 4 widths: the
/// first 3312 are distinct.
std::string DblpCountBody(uint64_t seed, uint64_t stream, uint64_t n,
                          bool topk) {
  uint64_t k = Permute(seed, stream, 552, n / 6);
  const int width = 2 + 2 * static_cast<int>(k % 4);
  k /= 4;
  const int year = 1986 + static_cast<int>(k % 23);
  const int pair = static_cast<int>(k / 23);
  return QuestionBody(topk, DblpVenues("count(*)", pair, year, width),
                      kDblpExpr, kDblpAttrSets[n % 6], "\"top_k\":5");
}

constexpr uint64_t kServeHot = 24;
constexpr uint64_t kServeBlock = 50;  // 45 hot, 4 fresh options, 1 fresh
constexpr uint64_t kServeFreshOptions = 4;
constexpr uint64_t kClusterCatalog = 64;
constexpr uint64_t kProbeIdBase = 1000000000ull;
constexpr uint64_t kPrefillIdBase = 2000000000ull;

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull ^ stream * 0xbf58476d1ce4e5b9ull ^
               (index + 0x632be59bd9b4e019ull) * 0x94d049bb133111ebull;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string WorkloadSpec::Describe() const {
  std::ostringstream out;
  out << "workload=" << name << " data=";
  if (natality()) {
    out << "natality rows=" << natality_rows;
  } else {
    out << "dblp scale=" << dblp_scale;
  }
  out << " clients=" << clients << " pipeline=" << pipeline
      << " shards=" << (shards == 0 ? 1 : shards)
      << " probe_deltas=" << probe_deltas << " loop=closed";
  return out.str();
}

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "natality_cube") {
    s.kind = Kind::kNatalityCube;
    s.natality_rows = 100000;
    s.clients = 4;
    s.pipeline = 1;
    s.probe_deltas = 100;
  } else if (name == "dblp_serve") {
    s.kind = Kind::kDblpServe;
    s.dblp_scale = 1.0;
    s.clients = 4;
    s.pipeline = 4;
    s.probe_deltas = 100;
  } else if (name == "dblp_cluster") {
    s.kind = Kind::kDblpCluster;
    s.dblp_scale = 0.25;
    s.clients = 2;
    s.pipeline = 4;
    s.shards = 2;
    s.probe_deltas = 100;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

std::vector<std::string> WorkloadNames() {
  return {"natality_cube", "dblp_serve", "dblp_cluster"};
}

xplain::Result<xplain::Database> GenerateData(const WorkloadSpec& spec,
                                              uint64_t seed) {
  if (spec.natality()) {
    xplain::datagen::NatalityOptions options;
    options.num_rows = spec.natality_rows;
    options.seed = seed;
    return xplain::datagen::GenerateNatality(options);
  }
  xplain::datagen::DblpOptions options;
  options.scale = spec.dblp_scale;
  options.seed = seed;
  return xplain::datagen::GenerateDblp(options);
}

OpSource::OpSource(const WorkloadSpec& spec, uint64_t seed,
                   const xplain::Database& db)
    : spec_(spec), seed_(seed) {
  for (int r = 0; r < db.num_relations(); ++r) {
    const std::string& name = db.relation(r).name();
    if (name == "Birth") birth_rows_ = db.relation(r).NumRows();
    if (name == "Publication") publications_ = db.relation(r).NumRows();
  }
  // Zipf(s = 1.1) popularity over the hot set, rank = position.
  double total = 0.0;
  for (size_t h = 0; h < kServeHot; ++h) {
    total += 1.0 / std::pow(static_cast<double>(h + 1), 1.1);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
  switch (spec_.kind) {
    case Kind::kNatalityCube:
      break;
    case Kind::kDblpServe: {
      for (uint64_t h = 0; h < kServeHot; ++h) {
        hot_.push_back(
            DblpDistinctBody(seed_, kHotBuild, h, h % 2 == 0, "\"top_k\":5"));
      }
      break;
    }
    case Kind::kDblpCluster: {
      // Half count(distinct pubid) (one fan-out round), half count(*)
      // (adds the exact-rescore round).
      for (uint64_t c = 0; c < kClusterCatalog; ++c) {
        const bool topk = (c / 2) % 2 == 0;
        hot_.push_back(
            c % 2 == 0
                ? DblpDistinctBody(seed_, kHotBuild, c / 2, topk, "\"top_k\":5")
                : DblpCountBody(seed_, kHotBuild, c / 2, topk));
      }
      break;
    }
  }
}

std::vector<Op> OpSource::Prefill() const {
  std::vector<Op> ops;
  for (size_t h = 0; h < hot_.size(); ++h) {
    const uint64_t id = kPrefillIdBase + h;
    ops.push_back({id, false, WithId(id, hot_[h])});
  }
  return ops;
}

Op OpSource::Window(uint64_t index) const {
  Op op;
  op.id = index + 1;
  switch (spec_.kind) {
    case Kind::kNatalityCube:
      op.line = NatalityCubeRead(index, op.id);
      break;
    case Kind::kDblpServe:
      op.line = DblpServeRead(index, op.id);
      break;
    case Kind::kDblpCluster:
      op.line = DblpClusterRead(index, op.id);
      break;
  }
  return op;
}

Op OpSource::Probe(uint64_t index) const {
  Op op;
  op.id = kProbeIdBase + index;
  op.delta = true;
  if (spec_.natality()) {
    // Slices of 0.05% of Birth, White rows only.
    const uint64_t width = std::max<uint64_t>(1, birth_rows_ / 2000);
    op.line = NatalityDelta(
        Permute(seed_, kProbeSlice, std::max<uint64_t>(1, birth_rows_ / width),
                index),
        width, op.id);
  } else {
    // Slices of ~0.05% of the publications (at least one pubid).
    const uint64_t width = std::max<uint64_t>(1, publications_ / 2000);
    op.line = DblpDelta(
        Permute(seed_, kProbeSlice,
                std::max<uint64_t>(1, publications_ / width), index),
        width, op.id);
  }
  return op;
}

std::string OpSource::NatalityCubeRead(uint64_t index, uint64_t id) const {
  // Every (filter, attribute set) pair is used once per 51 * 182 ops, so
  // neither the response cache nor the cube workspace ever hits.
  const auto& masks = NatalityAttrMasks();
  const uint64_t space = 51 * masks.size();
  const uint64_t p = Permute(seed_, 0, space, index);
  const uint32_t mask = masks[p % masks.size()];
  const uint64_t filter = p / masks.size();
  const bool topk = Mix(seed_, kOpType, index) & 1;
  if (filter < 36) {
    const char* sexes[] = {"", "M", "F"};
    const char* maritals[] = {"", "married", "unmarried"};
    return WithId(
        id, QuestionBody(topk,
                         QRace(kRaces[filter / 9], sexes[(filter / 3) % 3],
                               maritals[filter % 3]),
                         "q1 / q2", NatalityAttrs(mask), "\"top_k\":5"));
  }
  const uint64_t f = filter - 36;
  const char* races[] = {"", "White", "Black", "AmInd", "Asian"};
  const char* sexes[] = {"", "M", "F"};
  return WithId(id, QuestionBody(topk, QMarital(races[f / 3], sexes[f % 3]),
                                 kQMaritalExpr, NatalityAttrs(mask),
                                 "\"top_k\":5"));
}

std::string OpSource::DblpServeRead(uint64_t index, uint64_t id) const {
  // Each block of 50 ops holds exactly 45 hot draws, 4 fresh-option
  // variants of a hot question and 1 fresh count(*) question, in a seeded
  // order.
  const uint64_t block = index / kServeBlock;
  const uint64_t pos = index % kServeBlock;
  const uint64_t key = Mix(seed_, kBlockShuffle, block * kServeBlock + pos);
  uint64_t rank = 0;
  for (uint64_t q = 0; q < kServeBlock; ++q) {
    const uint64_t other = Mix(seed_, kBlockShuffle, block * kServeBlock + q);
    if (other < key || (other == key && q < pos)) ++rank;
  }
  if (rank < kServeBlock - kServeFreshOptions - 1) {
    return WithId(id, hot_[ZipfPick(index)]);
  }
  if (rank < kServeBlock - 1) {
    // A hot question with options no earlier op used: misses the response
    // cache, hits the workspace cubes the prefill built.
    const uint64_t first_fresh = kServeBlock - kServeFreshOptions - 1;
    const uint64_t ordinal = block * kServeFreshOptions + (rank - first_fresh);
    const uint64_t combo = Permute(seed_, 1, kServeHot * 50 * 9, ordinal);
    const uint64_t h = combo % kServeHot;
    const uint64_t top_k = 1 + (combo / kServeHot) % 50;
    const uint64_t variant = combo / (kServeHot * 50);
    const char* minimality[] = {"none", "selfjoin", "append"};
    const char* degree[] = {"interv", "aggr", "hybrid"};
    const std::string options =
        "\"top_k\":" + std::to_string(top_k) + ",\"minimality\":\"" +
        minimality[variant % 3] + "\",\"degree\":\"" + degree[variant / 3] +
        "\"";
    return WithId(id, DblpDistinctBody(seed_, kHotBuild, h, h % 2 == 0,
                                       options));
  }
  return WithId(id, DblpCountBody(seed_, kOpType, block,
                                  Mix(seed_, kOpType, index) & 1));
}

size_t OpSource::ZipfPick(uint64_t index) const {
  const double u = Uniform(Mix(seed_, kHotPick, index));
  const size_t n = hot_.size();
  const double scale = zipf_cdf_[n - 1];
  size_t h = 0;
  while (h + 1 < n && zipf_cdf_[h] < u * scale) ++h;
  return h;
}

std::string OpSource::DblpClusterRead(uint64_t index, uint64_t id) const {
  return WithId(id, hot_[Mix(seed_, kHotPick, index) % hot_.size()]);
}

std::string OpSource::NatalityDelta(uint64_t slice, uint64_t width,
                                    uint64_t id) const {
  const uint64_t lo = slice * width;
  return WithId(id,
                "\"op\":\"DELTA\",\"relation\":\"Birth\",\"where\":"
                "\"Birth.race = 'White' AND Birth.id >= " +
                    std::to_string(lo) + " AND Birth.id < " +
                    std::to_string(lo + width) + "\"}");
}

std::string OpSource::DblpDelta(uint64_t slice, uint64_t width,
                                uint64_t id) const {
  const uint64_t lo = slice * width;
  return WithId(id,
                "\"op\":\"DELTA\",\"relation\":\"Publication\",\"where\":"
                "\"Publication.pubid >= " +
                    std::to_string(lo) + " AND Publication.pubid < " +
                    std::to_string(lo + width) + "\"}");
}

}  // namespace xbench
