#include "net/vca.h"

#include <cmath>
#include <string>

#include "common/log.h"

namespace hornet::net {

VcaMode
vca_mode_from_string(const std::string &s)
{
    if (s == "dynamic")
        return VcaMode::Dynamic;
    if (s == "static")
        return VcaMode::StaticSet;
    if (s == "edvca")
        return VcaMode::Edvca;
    if (s == "faa")
        return VcaMode::Faa;
    fatal("unknown VCA mode: " + s);
}

const char *
to_string(VcaMode mode)
{
    switch (mode) {
      case VcaMode::Dynamic:
        return "dynamic";
      case VcaMode::StaticSet:
        return "static";
      case VcaMode::Edvca:
        return "edvca";
      case VcaMode::Faa:
        return "faa";
    }
    return "?";
}

void
VcaTable::add(const VcaKey &key, const VcaResult &result)
{
    if (!std::isfinite(result.weight) || result.weight <= 0.0)
        fatal(strcat("VCA table: weights must be positive and finite, got ",
                     result.weight));
    staged_.stage(key, result);
}

const VcaTable::Options *
VcaTable::lookup(const VcaKey &key) const
{
    return staged_.lookup(key);
}

} // namespace hornet::net
