#include "cache/platform.hpp"

namespace memopt {

PlatformModel vliw_platform() {
    PlatformModel p;
    p.name = "vliw";
    p.description = "Lx-ST200-class 4-issue VLIW: 2 KiB 4-way D$ with 32 B lines, "
                    "wide external SDRAM interface";
    p.config.cache.size_bytes = 2 * 1024;
    p.config.cache.line_bytes = 32;
    p.config.cache.associativity = 4;
    p.config.dram.activate_pj = 2200.0;
    p.config.dram.per_byte_pj = 55.0;
    return p;
}

PlatformModel risc_platform() {
    PlatformModel p;
    p.name = "risc";
    p.description = "MIPS/SimpleScalar-class RISC: 1 KiB 2-way D$ with 16 B lines, "
                    "narrower external memory interface";
    p.config.cache.size_bytes = 1024;
    p.config.cache.line_bytes = 16;
    p.config.cache.associativity = 2;
    p.config.dram.activate_pj = 1400.0;
    p.config.dram.per_byte_pj = 52.0;
    return p;
}

}  // namespace memopt
