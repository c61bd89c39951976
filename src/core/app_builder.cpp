#include "core/app_builder.hpp"

#include <algorithm>

#include "core/symbolize.hpp"
#include "sim/kernels.hpp"
#include "support/assert.hpp"

namespace memopt {

namespace {
constexpr std::size_t kDatasetsPerKernel = 4;  // keep the hottest symbols
constexpr std::uint64_t kMinDatasetBytes = 64;  // tiny symbols round up to this
}  // namespace

Application application_from_kernels(const std::vector<std::string>& kernel_names) {
    require(!kernel_names.empty(), "application_from_kernels: no kernels");

    Application app;
    app.name = "kernel-pipeline";
    app.num_contexts = kernel_names.size();

    for (std::size_t k = 0; k < kernel_names.size(); ++k) {
        const Kernel& kernel = kernel_by_name(kernel_names[k]);
        const AssembledProgram program = assemble(kernel.source);
        const RunResult run = Cpu(CpuConfig{}).run(program);
        const std::vector<SymbolTraffic> traffic = symbolize_trace(program, run.data_trace);

        KernelPhase phase;
        phase.name = kernel.name;
        phase.context = k;  // every kernel needs its own configuration

        std::size_t taken = 0;
        for (const SymbolTraffic& symbol : traffic) {
            if (taken == kDatasetsPerKernel) break;
            // The stack/anon region has no meaningful size; approximate it
            // with a fixed small scratch area. Symbol regions keep their
            // measured extent, clamped up to the minimum and rounded to
            // words.
            std::uint64_t bytes = symbol.name == "<stack/anon>" ? 256 : symbol.bytes;
            bytes = std::max<std::uint64_t>(bytes, kMinDatasetBytes);
            bytes = (bytes + 3) & ~std::uint64_t{3};

            const std::size_t dataset_index = app.datasets.size();
            app.datasets.push_back(DataSet{kernel.name + "." + symbol.name, bytes});
            phase.uses.push_back(KernelUse{dataset_index, symbol.total()});
            ++taken;
        }
        MEMOPT_ASSERT(!phase.uses.empty());
        app.phases.push_back(std::move(phase));
    }
    app.validate();
    return app;
}

}  // namespace memopt
