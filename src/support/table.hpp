// Console table rendering for bench harnesses and example programs.
//
// The reproduction benches print the tables/figures from the paper; this
// class renders them with aligned columns so the output is directly
// comparable to the published tables.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace memopt {

/// Column alignment for TablePrinter.
enum class Align { Left, Right };

/// Builds and renders a fixed-column text table.
///
/// Usage:
///   TablePrinter t({"benchmark", "energy [nJ]", "savings [%]"});
///   t.add_row({"fir", "12.3", "25.1"});
///   t.print(std::cout);
class TablePrinter {
public:
    /// Construct with header labels; the column count is fixed from here on.
    /// The first column is left-aligned, the rest right-aligned.
    explicit TablePrinter(std::vector<std::string> header);

    /// Append a data row; must match the header's column count.
    void add_row(std::vector<std::string> cells);

    /// Append a horizontal separator row.
    void add_separator();

    /// Render to a stream.
    void print(std::ostream& os) const;

    /// Render to a string (used by tests).
    std::string to_string() const;

    std::size_t rows() const { return rows_.size(); }
    std::size_t columns() const { return header_.size(); }

private:
    struct Row {
        bool separator = false;
        std::vector<std::string> cells;
    };

    std::vector<std::string> header_;
    std::vector<Align> aligns_;
    std::vector<Row> rows_;
};

}  // namespace memopt
