// Registration of the eight engines that ship with the library.
#pragma once

namespace respect::engines {

class EngineRegistry;

/// Registers the eight built-in engines.  Called once by
/// EngineRegistry::Global(); call it yourself only on a private registry.
void RegisterBuiltinEngines(EngineRegistry& registry);

}  // namespace respect::engines
