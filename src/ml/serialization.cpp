#include "ml/serialization.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dm::ml {
namespace {

constexpr std::string_view kMagic = "dynaminer-forest";
constexpr std::string_view kVersionV1 = "v1";  // pre-options legacy, read-only
constexpr std::string_view kVersion = "v2";

// Declared counts are capped before anything is sized from them: an
// adversarial header must not drive a multi-gigabyte reserve; real trees
// are bounded by max_depth and the training-set size.
constexpr long kMaxTrees = 100000;
constexpr long kMaxNodes = 10'000'000;
// The fewest bytes a tree header (" tree 0 0") and a node line
// (" node 0 0 0 0 0") can take, so a count the rest of the input cannot
// hold is a truncation, refused before anything is sized from it.
constexpr std::size_t kMinTreeBytes = 9;
constexpr std::size_t kMinNodeBytes = 15;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("forest serialization: " + what);
}

/// Round-trip-exact double formatting (hex-float).
std::string format_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

/// The bytes `istream >> std::string` splits tokens on in the "C" locale.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// The number readers take the text from a token's first byte to the end of
// the input and return where the number ends (nullptr when there is none);
// the token is well formed when that is where the token ends.

/// strtol's syntax: one optional sign, then decimal digits.  from_chars
/// takes the '-' but not the '+'.
template <typename Int>
const char* parse_int(const char* first, const char* last, Int& value) {
  if (*first == '+') {
    ++first;
    if (first != last && *first == '-') return nullptr;
  }
  const auto [end, ec] = std::from_chars(first, last, value);
  return ec == std::errc{} ? end : nullptr;
}

/// strtod's syntax: one optional sign, then a decimal float, a hex float
/// after 0x/0X, inf or nan.  A result out of a double's range is refused,
/// where strtod would return ±inf or 0.
const char* parse_double(const char* first, const char* last, double& value) {
  const char* body = first;
  if (*body == '+' || *body == '-') ++body;
  if (body == last || *body == '-') return nullptr;
  if (*body == 'n' || *body == 'N') {
    // from_chars drops the payload of "nan(chars)" that strtod keeps; no
    // trained forest holds a NaN, so this spelling takes the slow road.
    const std::string token(first, std::find_if(first, last, is_space));
    char* end = nullptr;
    value = std::strtod(token.c_str(), &end);
    return first + (end - token.c_str());
  }
  auto format = std::chars_format::general;
  if (last - body > 1 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    body += 2;
    format = std::chars_format::hex;
    // strtod wants a digit or a point after the prefix; from_chars would
    // also take a sign or "inf" there.
    if (body == last || !(std::isxdigit(static_cast<unsigned char>(*body)) || *body == '.')) {
      return nullptr;
    }
  }
  const auto [end, ec] = std::from_chars(body, last, value, format);
  if (ec != std::errc{}) return nullptr;
  // libstdc++'s hex reader also takes an exponent signed "+-", as strtod
  // does not.
  if (std::string_view(body, static_cast<std::size_t>(end - body)).find("+-") !=
      std::string_view::npos) {
    return nullptr;
  }
  if (*first == '-') value = -value;
  return end;
}

/// One forward pass over an in-memory artifact.  Numbers are read in place
/// and keywords compared in place, so a token costs no allocation and is
/// looked at once.
class Scanner {
 public:
  explicit Scanner(std::string_view text) noexcept
      : at_(text.data()), end_(text.data() + text.size()) {}

  std::size_t remaining() const noexcept { return static_cast<std::size_t>(end_ - at_); }

  /// The next token, not consumed; empty at the end of the input.
  std::string_view peek() noexcept {
    skip_space();
    return {at_, static_cast<std::size_t>(std::find_if(at_, end_, is_space) - at_)};
  }

  std::string_view next(std::string_view context) {
    start(context);
    const std::string_view token = peek();
    at_ += token.size();
    return token;
  }

  void expect(std::string_view expected) {
    start(expected);
    if (std::string_view(at_, remaining()).starts_with(expected) &&
        ends_token(at_ + expected.size())) {
      at_ += expected.size();
      return;
    }
    fail("expected '" + std::string(expected) + "', got '" + std::string(peek()) + "'");
  }

  template <typename Int>
  Int read_int(const char* context) {
    start(context);
    Int value = 0;
    consume(parse_int(at_, end_, value), "bad integer for ", context);
    return value;
  }

  double read_double(const char* context) {
    start(context);
    double value = 0.0;
    consume(parse_double(at_, end_, value), "bad double for ", context);
    return value;
  }

 private:
  bool ends_token(const char* p) const noexcept { return p == end_ || is_space(*p); }

  void skip_space() noexcept {
    while (at_ != end_ && is_space(*at_)) ++at_;
  }

  /// Moves to the next token's first byte; fails at the end of the input.
  void start(std::string_view context) {
    skip_space();
    if (at_ == end_) fail("unexpected end of input reading " + std::string(context));
  }

  /// Consumes a number ending at `end`, which must be where its token ends.
  void consume(const char* end, const char* what, const char* context) {
    if (end == nullptr || !ends_token(end)) fail(what + std::string(context));
    at_ = end;
  }

  const char* at_;
  const char* const end_;
};

/// Reads `in` to its end in bulk, a pipe as well as a file.
std::string read_to_end(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

}  // namespace

/// The reader: a friend of DecisionTree, so a validated node table moves
/// straight into the tree.
class ForestReader {
 public:
  static RandomForest read(std::string_view text) {
    Scanner in(text);
    in.expect(kMagic);
    const std::string_view version = in.next("version");
    if (version != kVersion && version != kVersionV1) {
      fail("expected '" + std::string(kVersion) + "', got '" + std::string(version) + "'");
    }
    in.expect("trees");
    const long count = in.read_int<long>("tree count");
    if (count < 0 || count > kMaxTrees) fail("implausible tree count");
    in.expect("combination");
    const std::string_view combination = in.next("combination");

    ForestOptions options;
    if (combination == "avg") {
      options.combination = Combination::kProbabilityAveraging;
    } else if (combination == "vote") {
      options.combination = Combination::kMajorityVote;
    } else {
      fail("unknown combination '" + std::string(combination) + "'");
    }
    options.num_trees = static_cast<std::size_t>(count);
    std::uint64_t model_version = 0;
    if (version == kVersion) {
      in.expect("options");
      in.expect("features-per-split");
      options.features_per_split = in.read_int<std::uint64_t>("features-per-split");
      in.expect("bootstrap-fraction");
      options.bootstrap_fraction = in.read_double("bootstrap-fraction");
      in.expect("seed");
      options.seed = in.read_int<std::uint64_t>("seed");
      in.expect("tree-options");
      in.expect("max-depth");
      options.tree.max_depth = in.read_int<std::uint64_t>("max-depth");
      in.expect("min-samples-split");
      options.tree.min_samples_split = in.read_int<std::uint64_t>("min-samples-split");
      in.expect("min-samples-leaf");
      options.tree.min_samples_leaf = in.read_int<std::uint64_t>("min-samples-leaf");
      // Optional trailer: serving-layer model version (absent in artifacts
      // written before the serving layer existed, and in unstamped forests).
      if (in.peek() == "model-version") {
        in.expect("model-version");
        model_version = in.read_int<std::uint64_t>("model-version");
      }
    }
    // The peek for the trailer may have skipped the first tree's blank.
    if (static_cast<std::size_t>(count) > (in.remaining() + 1) / kMinTreeBytes) {
      fail("unexpected end of input reading tree");
    }
    std::vector<DecisionTree> trees;
    trees.reserve(static_cast<std::size_t>(count));
    std::vector<std::uint8_t> named;  // per tree: node already some node's child
    for (long i = 0; i < count; ++i) trees.push_back(read_tree(in, named));
    RandomForest forest = RandomForest::assemble(std::move(trees), options);
    forest.set_model_version(model_version);
    return forest;
  }

 private:
  static DecisionTree read_tree(Scanner& in, std::vector<std::uint8_t>& named) {
    in.expect("tree");
    const long count = in.read_int<long>("node count");
    const long depth = in.read_int<long>("depth");
    if (count < 0 || depth < 0) fail("negative tree geometry");
    if (count > kMaxNodes) fail("implausible node count");
    if (static_cast<std::size_t>(count) > in.remaining() / kMinNodeBytes) {
      fail("unexpected end of input reading node");
    }

    DecisionTree tree;
    tree.depth_ = static_cast<std::size_t>(depth);
    tree.nodes_.reserve(static_cast<std::size_t>(count));
    named.assign(static_cast<std::size_t>(count), 0);
    for (long i = 0; i < count; ++i) {
      in.expect("node");
      DecisionTree::Node node;
      // FlatForest indexes its arena and the feature vector with int32.
      node.left = in.read_int<std::int32_t>("left");
      node.right = in.read_int<std::int32_t>("right");
      const auto feature = in.read_int<std::int32_t>("feature");
      if (feature < 0) fail("negative feature");
      node.feature = static_cast<std::uint32_t>(feature);
      node.threshold = in.read_double("threshold");
      node.positive_probability = in.read_double("probability");
      // Structural validation: children must point inside the node table,
      // and the links must form a tree: each child after its parent and
      // named once, as DecisionTree::train lays nodes out.  A cycle or a
      // shared child would make FlatForest::compile's walk grow without end.
      if (node.left >= count || node.right >= count) fail("child out of range");
      if ((node.left < 0) != (node.right < 0)) fail("half-leaf node");
      if (node.left >= 0) {
        if (node.left <= i || node.right <= i) fail("child before its parent");
        const auto left = static_cast<std::size_t>(node.left);
        const auto right = static_cast<std::size_t>(node.right);
        if (left == right || named[left] || named[right]) fail("node is a child twice");
        named[left] = named[right] = 1;
      }
      tree.nodes_.push_back(node);
    }
    return tree;
  }
};

// ---- writer ----------------------------------------------------------------

void DecisionTree::serialize(std::ostream& out) const {
  out << "tree " << nodes_.size() << ' ' << depth_ << '\n';
  for (const Node& node : nodes_) {
    out << "node " << node.left << ' ' << node.right << ' ' << node.feature
        << ' ' << format_double(node.threshold) << ' '
        << format_double(node.positive_probability) << '\n';
  }
}

void RandomForest::serialize(std::ostream& out) const {
  out << kMagic << ' ' << kVersion << '\n';
  out << "trees " << trees_.size() << " combination "
      << (options_.combination == Combination::kProbabilityAveraging ? "avg"
                                                                     : "vote")
      << '\n';
  // v2: every remaining ForestOptions field, so nothing about the training
  // configuration is silently dropped on the way to the Stage-2 deployment.
  out << "options features-per-split " << options_.features_per_split
      << " bootstrap-fraction " << format_double(options_.bootstrap_fraction)
      << " seed " << options_.seed << '\n';
  out << "tree-options max-depth " << options_.tree.max_depth
      << " min-samples-split " << options_.tree.min_samples_split
      << " min-samples-leaf " << options_.tree.min_samples_leaf << '\n';
  // Serving provenance, only when stamped: version 0 writes nothing, so
  // every pre-serve artifact (and every fresh training run) stays
  // byte-identical to the original v2 layout.
  if (model_version_ != 0) {
    out << "model-version " << model_version_ << '\n';
  }
  for (const DecisionTree& tree : trees_) tree.serialize(out);
}

// ---- free functions ---------------------------------------------------------

void save_forest(const RandomForest& forest, std::ostream& out) {
  forest.serialize(out);
  if (!out) fail("write failure");
}

RandomForest load_forest(std::istream& in) { return ForestReader::read(read_to_end(in)); }

void save_forest_file(const RandomForest& forest, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) fail("cannot open for write: " + path);
  save_forest(forest, out);
}

RandomForest load_forest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open for read: " + path);
  return load_forest(in);
}

// The throwing reader is the single source of truth for format validation;
// the structured-error API catches at the boundary so callers that read
// untrusted artifacts (the model store's recovery scan, operator tooling)
// get quarantine-and-count semantics instead of stack unwinding through
// their own state.
LoadResult<RandomForest> try_load_forest(std::string_view text) {
  try {
    return ForestReader::read(text);
  } catch (const std::exception& e) {
    return LoadError{e.what()};
  }
}

LoadResult<RandomForest> try_load_forest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return LoadError{"cannot open for read: " + path};
  return try_load_forest(read_to_end(in));
}

}  // namespace dm::ml
