#include "engines/registry.h"

#include <stdexcept>
#include <string>

#include "engines/builtin.h"

namespace respect::engines {

EngineRegistry& EngineRegistry::Global() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    RegisterBuiltinEngines(*r);
    return r;
  }();
  return *registry;
}

void EngineRegistry::Register(EngineRegistration registration) {
  if (registration.name.empty()) {
    throw std::invalid_argument("engine registration needs a name");
  }
  if (!registration.factory) {
    throw std::invalid_argument("engine '" + registration.name +
                                "' registered without a factory");
  }
  for (const EngineRegistration& existing : registrations_) {
    const bool name_clash = existing.name == registration.name ||
                            existing.alias == registration.name;
    const bool alias_clash =
        !registration.alias.empty() &&
        (existing.name == registration.alias ||
         existing.alias == registration.alias);
    if (name_clash || alias_clash) {
      throw std::invalid_argument("engine '" + registration.name +
                                  "' collides with registered engine '" +
                                  existing.name + "'");
    }
    if (registration.method && existing.method == registration.method) {
      throw std::invalid_argument("engine '" + registration.name +
                                  "' reuses the Method enum value of '" +
                                  existing.name + "'");
    }
  }
  registrations_.push_back(std::move(registration));
}

bool EngineRegistry::Contains(std::string_view name_or_alias) const {
  return Find(name_or_alias) != nullptr;
}

const EngineRegistration* EngineRegistry::Find(
    std::string_view name_or_alias) const {
  for (const EngineRegistration& registration : registrations_) {
    // An empty alias is "no alias" — it must not match an empty query.
    if (registration.name == name_or_alias ||
        (!registration.alias.empty() && registration.alias == name_or_alias)) {
      return &registration;
    }
  }
  return nullptr;
}

const EngineRegistration* EngineRegistry::Find(Method method) const {
  for (const EngineRegistration& registration : registrations_) {
    if (registration.method == method) return &registration;
  }
  return nullptr;
}

const EngineRegistration& EngineRegistry::Resolve(const EngineRef& ref) const {
  if (ref.IsEmpty()) {
    throw std::invalid_argument(
        "no engine specified (EngineRef is empty; set a name, alias, or "
        "Method value)");
  }
  const EngineRegistration* registration = nullptr;
  if (const auto* method = std::get_if<Method>(&ref.ref_)) {
    registration = Find(*method);
  } else if (const auto* name = std::get_if<std::string>(&ref.ref_)) {
    registration = Find(std::string_view(*name));
  }
  if (registration == nullptr) {
    throw std::invalid_argument("unknown scheduling engine '" +
                                ref.Spelling() + "'");
  }
  return *registration;
}

std::unique_ptr<SchedulerEngine> EngineRegistry::Create(
    const EngineRef& ref, const EngineContext& context) const {
  const EngineRegistration& registration = Resolve(ref);
  std::unique_ptr<SchedulerEngine> engine = registration.factory(context);
  if (engine == nullptr) {
    throw std::runtime_error("factory of engine '" + registration.name +
                             "' returned null");
  }
  return engine;
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(registrations_.size());
  for (const EngineRegistration& registration : registrations_) {
    names.push_back(registration.name);
  }
  return names;
}

std::string EngineRef::Spelling() const {
  if (const auto* name = std::get_if<std::string>(&ref_)) return *name;
  if (const auto* method = std::get_if<Method>(&ref_)) {
    return std::string(MethodName(*method));
  }
  return "<unset>";
}

}  // namespace respect::engines

namespace respect {

std::string_view MethodName(Method method) {
  const engines::EngineRegistration* registration =
      engines::EngineRegistry::Global().Find(method);
  return registration != nullptr ? std::string_view(registration->name)
                                 : std::string_view("Unknown");
}

std::optional<Method> MethodFromName(std::string_view name) {
  const engines::EngineRegistration* registration =
      engines::EngineRegistry::Global().Find(name);
  if (registration == nullptr) return std::nullopt;
  return registration->method;
}

}  // namespace respect
