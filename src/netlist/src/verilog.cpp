#include "pml/netlist/verilog.hpp"

#include <ostream>
#include <sstream>

namespace pml::netlist {

namespace {

/// Verilog expression for reading one net.
std::string net_ref(const Module& module, NetId n) {
  if (n == kConst0) return "1'b0";
  if (n == kConst1) return "1'b1";
  for (const auto& port : module.input_ports()) {
    for (std::size_t b = 0; b < port.nets.size(); ++b) {
      if (port.nets[b] == n) {
        return port.nets.size() == 1
                   ? port.name
                   : port.name + "[" + std::to_string(b) + "]";
      }
    }
  }
  return std::string("n").append(std::to_string(n));
}

}  // namespace

void write_verilog(const Module& module, std::ostream& os,
                   const VerilogOptions& options) {
  const auto stats = module.stats();
  const bool sequential = stats.num_dffs > 0;

  os << "// generated by printed-seqsvm from module '" << module.name()
     << "'\n";
  os << "module " << module.name() << " (\n";
  if (sequential) {
    os << "  input  wire " << options.clock_name << ",\n";
    os << "  input  wire " << options.reset_name << ",\n";
  }
  bool first = true;
  for (const auto& port : module.input_ports()) {
    os << (first ? "" : ",\n") << "  input  wire ";
    if (port.nets.size() > 1) os << "[" << port.nets.size() - 1 << ":0] ";
    os << port.name;
    first = false;
  }
  for (const auto& port : module.output_ports()) {
    os << (first ? "" : ",\n") << "  output wire ";
    if (port.nets.size() > 1) os << "[" << port.nets.size() - 1 << ":0] ";
    os << port.name;
    first = false;
  }
  os << "\n);\n\n";

  // Wires for every cell output.
  for (const auto& cell : module.cells()) {
    os << (cell.type == CellType::kDff ? "  reg  n" : "  wire n") << cell.out
       << ";\n";
  }
  os << '\n';

  // Combinational cells, grouped by component for readability.
  GroupId last_group = 0xFFFF;
  for (const auto& cell : module.cells()) {
    if (cell.type == CellType::kDff) continue;
    if (options.emit_groups_as_comments && cell.group != last_group) {
      os << "  // --- " << module.group_names()[cell.group] << " ---\n";
      last_group = cell.group;
    }
    const std::string a = net_ref(module, cell.in[0]);
    const std::string b =
        cell.in[1] != kInvalidNet ? net_ref(module, cell.in[1]) : "";
    const std::string s =
        cell.in[2] != kInvalidNet ? net_ref(module, cell.in[2]) : "";
    os << "  assign n" << cell.out << " = ";
    switch (cell.type) {
      case CellType::kInv: os << "~" << a; break;
      case CellType::kBuf: os << a; break;
      case CellType::kNand2: os << "~(" << a << " & " << b << ")"; break;
      case CellType::kNor2: os << "~(" << a << " | " << b << ")"; break;
      case CellType::kAnd2: os << a << " & " << b; break;
      case CellType::kOr2: os << a << " | " << b; break;
      case CellType::kXor2: os << a << " ^ " << b; break;
      case CellType::kXnor2: os << "~(" << a << " ^ " << b << ")"; break;
      case CellType::kMux2: os << s << " ? " << b << " : " << a; break;
      case CellType::kDff: break;  // unreachable
    }
    os << ";\n";
  }

  // Sequential block.
  if (sequential) {
    os << "\n  always @(posedge " << options.clock_name << " or negedge "
       << options.reset_name << ") begin\n";
    os << "    if (!" << options.reset_name << ") begin\n";
    for (const auto& cell : module.cells()) {
      if (cell.type != CellType::kDff) continue;
      os << "      n" << cell.out << " <= 1'b" << (cell.dff_init ? 1 : 0)
         << ";\n";
    }
    os << "    end else begin\n";
    for (const auto& cell : module.cells()) {
      if (cell.type != CellType::kDff) continue;
      os << "      n" << cell.out << " <= " << net_ref(module, cell.in[0])
         << ";\n";
    }
    os << "    end\n  end\n";
  }

  // Output port connections.
  os << '\n';
  for (const auto& port : module.output_ports()) {
    for (std::size_t b = 0; b < port.nets.size(); ++b) {
      os << "  assign " << port.name;
      if (port.nets.size() > 1) os << "[" << b << "]";
      os << " = " << net_ref(module, port.nets[b]) << ";\n";
    }
  }
  os << "\nendmodule\n";
}

std::string to_verilog(const Module& module, const VerilogOptions& options) {
  std::ostringstream os;
  write_verilog(module, os, options);
  return os.str();
}

}  // namespace pml::netlist
