// Plain-text (de)serialization of computational graphs.
//
// A small line-oriented format so graphs can be exported, diffed, and fed to
// the CLI tools without rebuilding the zoo:
//
//   respect-dag 1
//   name <model name>
//   node <id> <type> <param_bytes> <output_bytes> <macs> <op name...>
//   edge <from> <to>
//
// Round-trips exactly (names may contain spaces; they end the line).
// Integers are spelled by std::to_chars, so the text is the same under any
// stream or global locale: it is also the byte stream graph::HashDag
// digests into cache keys.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/dag.h"

namespace respect::graph {

/// The one definition of the format above: hands the text of `dag` to
/// `sink` in order, in chunks of unspecified size.  WriteDag writes the
/// chunks to a stream; graph::HashDag feeds them to its hasher.
void EmitDag(const Dag& dag,
             const std::function<void(std::string_view)>& sink);

/// Writes `dag` to the stream in the format above.
void WriteDag(const Dag& dag, std::ostream& os);

/// Parses a graph written by WriteDag.  Throws std::runtime_error on
/// malformed input (wrong header, bad ids, duplicate edges).
[[nodiscard]] Dag ReadDag(std::istream& is);

/// File-path convenience wrappers.
void SaveDag(const Dag& dag, const std::string& path);
[[nodiscard]] Dag LoadDag(const std::string& path);

}  // namespace respect::graph
