// Model persistence: the paper's deployment splits training (Stage 1,
// offline) from detection (Stage 2, on the wire), which implies a trained
// classifier artifact that moves between the two.  This module serializes
// decision trees and forests to a small, versioned, line-oriented text
// format that is stable across platforms (doubles are round-tripped via
// hex-float formatting).
//
// Format sketch (v2 — current writer):
//   dynaminer-forest v2
//   trees <N> combination <avg|vote>
//   options features-per-split <Nf> bootstrap-fraction <hexfloat> seed <u64>
//   tree-options max-depth <D> min-samples-split <S> min-samples-leaf <L>
//   model-version <u64>          (optional — serving-layer provenance)
//   tree <node-count> <depth>
//   node <left> <right> <feature> <threshold-hexfloat> <prob-hexfloat>
//   ...
// v1 (no `options` / `tree-options` lines) is still readable; its dropped
// ForestOptions fields load as the ForestOptions defaults.  v2 round-trips
// every ForestOptions field, so a reloaded forest can be retrained or
// compared under exactly the configuration that produced it.  The optional
// `model-version` trailer carries the serving layer's published-version
// stamp (serve::RetrainDriver); it is omitted when 0, so unstamped forests
// — including every artifact written before the serving layer existed —
// serialize byte-identically to the original v2 layout and load with
// model_version() == 0.
//
// The reader is the model store's trust boundary, so past the grammar it
// refuses: counts over their caps; a link outside its tree's node table; a
// half leaf (one link negative, the other not); links that do not form a
// tree (every child index greater than its parent's, no node a child
// twice); a link outside int32 or a feature outside [0, INT32_MAX], which
// ml::FlatForest could not index; and a number out of a double's range.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "ml/random_forest.h"
#include "util/expected.h"

namespace dm::ml {

/// Writes the forest (all trees + the options needed to score) to `out`.
/// Throws std::runtime_error on stream failure.
void save_forest(const RandomForest& forest, std::ostream& out);

/// Reads a forest previously written by save_forest.  Consumes `in` to its
/// end and parses that text, so bytes after the forest are read (and
/// ignored) too.  Throws std::runtime_error on malformed input or version
/// mismatch.
RandomForest load_forest(std::istream& in);

/// File-path conveniences.  The loaders read the file to its end, so a
/// path may name a pipe or FIFO as well as a regular file.
void save_forest_file(const RandomForest& forest, const std::string& path);
RandomForest load_forest_file(const std::string& path);

/// Structured load failure: what was wrong with the artifact.  Model files
/// cross a trust boundary (the serve::ModelStore reads whatever survived a
/// crash), so short reads, bad magic, and garbage bytes are expected inputs
/// — they quarantine-and-count, they must not throw.
struct LoadError {
  std::string reason;

  std::string to_string() const { return "forest load: " + reason; }
};

template <typename T>
using LoadResult = dm::util::BasicExpected<T, LoadError>;

/// Non-throwing variants of load_forest: every malformed input — truncated
/// stream, bad magic, implausible counts, non-numeric tokens, structural
/// violations — comes back as a LoadError instead of an exception.  The
/// text is parsed in place.
LoadResult<RandomForest> try_load_forest(std::string_view text);
LoadResult<RandomForest> try_load_forest_file(const std::string& path);

}  // namespace dm::ml
