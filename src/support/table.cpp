#include "support/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "support/assert.hpp"

namespace memopt {

TablePrinter::TablePrinter(std::vector<std::string> header) : header_(std::move(header)) {
    require(!header_.empty(), "TablePrinter requires at least one column");
    aligns_.assign(header_.size(), Align::Right);
    aligns_[0] = Align::Left;
}

void TablePrinter::add_row(std::vector<std::string> cells) {
    require(cells.size() == header_.size(), "add_row: cell count does not match header");
    rows_.push_back(Row{false, std::move(cells)});
}

void TablePrinter::add_separator() { rows_.push_back(Row{true, {}}); }

void TablePrinter::print(std::ostream& os) const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const Row& r : rows_) {
        if (r.separator) continue;
        for (std::size_t c = 0; c < r.cells.size(); ++c)
            widths[c] = std::max(widths[c], r.cells[c].size());
    }

    auto emit_cell = [&](const std::string& s, std::size_t c) {
        const std::size_t pad = widths[c] - s.size();
        if (aligns_[c] == Align::Left) {
            os << s << std::string(pad, ' ');
        } else {
            os << std::string(pad, ' ') << s;
        }
    };
    auto emit_rule = [&]() {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            os << std::string(widths[c] + 2, '-');
            os << (c + 1 == widths.size() ? "\n" : "+");
        }
    };

    auto emit_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << ' ';
            emit_cell(cells[c], c);
            os << (c + 1 == cells.size() ? " \n" : " |");
        }
    };

    emit_row(header_);
    emit_rule();
    for (const Row& r : rows_) {
        if (r.separator) {
            emit_rule();
        } else {
            emit_row(r.cells);
        }
    }
}

std::string TablePrinter::to_string() const {
    std::ostringstream oss;
    print(oss);
    return oss.str();
}

}  // namespace memopt
