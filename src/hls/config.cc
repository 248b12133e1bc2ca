#include "hls/config.h"

#include "support/env.h"

namespace heterogen::hls {

const std::vector<DeviceSpec> &
knownDevices()
{
    static const std::vector<DeviceSpec> devices = {
        {"xcvu9p", 1182240, 2364480, 6840, 75900},
        {"xc7z020", 53200, 106400, 220, 4480},
        {"xcku115", 663360, 1326720, 5520, 75900},
    };
    return devices;
}

const DeviceSpec *
findDevice(const std::string &name)
{
    for (const DeviceSpec &d : knownDevices()) {
        if (d.name == name)
            return &d;
    }
    return nullptr;
}

long
defaultStreamDepth()
{
    auto depth = readEnvKnob(
        "HETEROGEN_STREAM_DEPTH", "an integer in [1, 1024]",
        [](const std::string &v) {
            return parseUnsigned(v, kMinStreamDepth, kMaxStreamDepth);
        });
    return static_cast<long>(depth.value_or(2));
}

} // namespace heterogen::hls
