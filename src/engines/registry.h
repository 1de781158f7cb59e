// Engine registry — the single source of truth mapping engine names and
// CLI aliases to factories.  An engine is its registry entry: callers name
// it by the canonical name or the alias, both plain strings.
//
// Built-in engines are registered the first time Global() is called; user
// code may register additional engines at startup:
//
//   engines::EngineRegistry::Global().Register({
//       .name = "MyEngine", .alias = "mine", .description = "...",
//       .factory = [](const engines::EngineContext&) { ... }});
//   auto result = compiler.Compile(dag, 4, "MyEngine");
//
// Registration is not synchronized: register engines during startup, before
// handing the registry to concurrent compile paths.  Lookups are const and
// safe to run concurrently once registration is done.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engines/engine.h"

namespace respect::engines {

using EngineFactory =
    std::function<std::unique_ptr<SchedulerEngine>(const EngineContext&)>;

/// One registry entry.  `name` is the canonical spelling (what cache keys,
/// responses and failpoint tags carry); `alias` is the short CLI spelling.
struct EngineRegistration {
  std::string name;
  std::string alias;
  std::string description;
  EngineFactory factory;

  /// True when the engine reads EngineContext::rl — i.e. its output depends
  /// on the current RL weight snapshot.  The serving layer keys its schedule
  /// cache on the snapshot version for exactly these engines, so ReplaceRl
  /// invalidates their cached results while deterministic engines stay warm.
  bool uses_rl = false;
};

class EngineRegistry {
 public:
  /// The process-wide registry, with the built-in engines pre-registered.
  static EngineRegistry& Global();

  /// Adds an engine.  Throws std::invalid_argument when the name or alias
  /// collides with an existing entry, when the factory is empty, or when the
  /// name is empty.
  void Register(EngineRegistration registration);

  [[nodiscard]] bool Contains(std::string_view name_or_alias) const;

  /// Finds by canonical name or alias (exact match); null when absent.
  [[nodiscard]] const EngineRegistration* Find(
      std::string_view name_or_alias) const;

  /// Like Find, but throws std::invalid_argument (naming the caller's
  /// spelling) when `name_or_alias` is empty or unknown.  The returned
  /// reference stays valid for the process lifetime (entries are never
  /// relocated or removed).
  [[nodiscard]] const EngineRegistration& Resolve(
      std::string_view name_or_alias) const;

  /// Instantiates the engine `name_or_alias` names (any spelling Resolve
  /// accepts).  Throws std::invalid_argument when it is empty or unknown.
  [[nodiscard]] std::unique_ptr<SchedulerEngine> Create(
      std::string_view name_or_alias, const EngineContext& context) const;

  /// All entries, in registration order (built-ins first).
  [[nodiscard]] const std::deque<EngineRegistration>& Registrations() const {
    return registrations_;
  }

  /// Canonical names, in registration order.
  [[nodiscard]] std::vector<std::string> Names() const;

 private:
  // Deque, not vector: Register() must never relocate existing entries, so
  // pointers from Find() and views of their names stay valid across later
  // registrations.
  std::deque<EngineRegistration> registrations_;
};

}  // namespace respect::engines
