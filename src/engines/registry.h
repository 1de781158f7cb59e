// Engine registry — the single source of truth mapping engine names, CLI
// aliases and Method enum values to factories.
//
// Built-in engines are registered the first time Global() is called; user
// code may register additional engines at startup:
//
//   engines::EngineRegistry::Global().Register({
//       .name = "MyEngine", .alias = "mine", .description = "...",
//       .method = std::nullopt,
//       .factory = [](const engines::EngineContext&) { ... }});
//   auto result = compiler.Compile(dag, 4, "MyEngine");
//
// Every lookup that instantiates or resolves an engine takes an EngineRef
// (engine_ref.h), so the canonical name, the alias and the Method value are
// interchangeable wherever an engine is named: Resolve finds the entry and
// Create runs its factory.
//
// Registration is not synchronized: register engines during startup, before
// handing the registry to concurrent compile paths.  Lookups are const and
// safe to run concurrently once registration is done.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engines/engine.h"
#include "engines/engine_ref.h"
#include "engines/method.h"

namespace respect::engines {

using EngineFactory =
    std::function<std::unique_ptr<SchedulerEngine>(const EngineContext&)>;

/// One registry entry.  `name` is the canonical spelling (what MethodName
/// returns); `alias` is the short CLI spelling.  `method` is set for the
/// built-in engines addressable through the Method enum and empty for
/// engines registered at runtime.
struct EngineRegistration {
  std::string name;
  std::string alias;
  std::string description;
  std::optional<Method> method;
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
  [[nodiscard]] const EngineRegistration* Find(Method method) const;

  /// Looks up whatever an EngineRef spells — canonical name, alias, or
  /// Method value — and throws std::invalid_argument (naming the caller's
  /// spelling) when the ref is empty or unknown.  Deliberately not a Find
  /// overload: EngineRef converts implicitly from strings, which would make
  /// Find(std::string) ambiguous.  The returned reference stays valid for
  /// the process lifetime (entries are never relocated or removed).
  [[nodiscard]] const EngineRegistration& Resolve(const EngineRef& ref) const;

  /// Instantiates the engine `ref` spells (any spelling Resolve accepts).
  /// Throws std::invalid_argument when the ref is empty or unknown.
  [[nodiscard]] std::unique_ptr<SchedulerEngine> Create(
      const EngineRef& ref, const EngineContext& context) const;

  /// All entries, in registration order (built-ins first).
  [[nodiscard]] const std::deque<EngineRegistration>& Registrations() const {
    return registrations_;
  }

  /// Canonical names, in registration order.
  [[nodiscard]] std::vector<std::string> Names() const;

 private:
  // Deque, not vector: Register() must never relocate existing entries, so
  // pointers from Find() and string_views from MethodName() stay valid
  // across later registrations.
  std::deque<EngineRegistration> registrations_;
};

}  // namespace respect::engines

namespace respect {

/// Canonical name of a built-in method, resolved through the registry.
[[nodiscard]] std::string_view MethodName(Method method);

/// Inverse lookup accepting either the canonical name or the CLI alias;
/// empty for unknown strings and for runtime-registered engines that have no
/// enum value.
[[nodiscard]] std::optional<Method> MethodFromName(std::string_view name);

}  // namespace respect
