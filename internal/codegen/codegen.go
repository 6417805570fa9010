// Package codegen emits the concrete P4 program for a solved layout:
// every symbolic value replaced by its optimal assignment, elastic
// arrays expanded into per-instance declarations, loops unrolled into
// straight-line action invocations, and the stage mapping attached as
// annotations (the compiler's outputs in the paper's Figure 8).
//
// Emission is structured: Build lowers the unit + layout into the
// Concrete IR (concrete.go), and Render prints that IR as text. The
// translation validator (internal/tv) consumes the same Concrete value
// the text is printed from, so what it certifies is what was emitted.
//
// The output dialect mirrors the P4All subset (P4_16-flavored); a
// target-specific P4 compiler is the proprietary step this repo
// replaces with the behavioral simulator in internal/sim.
package codegen

import (
	"fmt"
	"sort"
	"strings"

	"p4all/internal/ilpgen"
	"p4all/internal/lang"
)

// Render prints the concrete program IR as P4 text.
func Render(c *Concrete) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Generated by the P4All compiler for target %q.\n", c.Target)
	fmt.Fprintf(&b, "// Symbolic assignment:")
	for _, sv := range c.Symbolics {
		fmt.Fprintf(&b, " %s=%d", sv.Name, sv.Value)
	}
	b.WriteString("\n\n")

	for _, s := range c.Structs {
		kw := "struct"
		if s.IsHeader {
			kw = "header"
		}
		fmt.Fprintf(&b, "%s %s {\n", kw, s.Name)
		for _, f := range s.Fields {
			if f.Index < 0 {
				fmt.Fprintf(&b, "    bit<%d> %s;\n", f.Width, f.Name)
				continue
			}
			fmt.Fprintf(&b, "    bit<%d> %s_%d;\n", f.Width, f.Name, f.Index)
		}
		b.WriteString("}\n\n")
	}

	for _, r := range c.Registers {
		fmt.Fprintf(&b, "@stage(%s) register<bit<%d>>(%d) %s_%d;\n",
			stageList(r.Stages), r.Width, r.Cells, r.Name, r.Index)
	}
	b.WriteString("\n")

	for _, tbl := range c.Tables {
		fmt.Fprintf(&b, "@stage(%d) table %s {\n", tbl.Stage, tbl.Name)
		if len(tbl.Keys) > 0 {
			b.WriteString("    key = {")
			for _, k := range tbl.Keys {
				fmt.Fprintf(&b, " %s;", renderExpr(k))
			}
			b.WriteString(" }\n")
		}
		if len(tbl.Actions) > 0 {
			b.WriteString("    actions = {")
			for _, a := range tbl.Actions {
				fmt.Fprintf(&b, " %s;", a)
			}
			b.WriteString(" }\n")
		}
		fmt.Fprintf(&b, "    size = %d;\n}\n\n", tbl.Size)
	}

	for _, a := range c.Actions {
		fmt.Fprintf(&b, "@stage(%d) action %s() {\n", a.Stage, a.Name)
		for _, st := range a.Body {
			renderStmt(&b, st, 1)
		}
		b.WriteString("}\n")
	}
	b.WriteString("\n")

	b.WriteString("control main {\n    apply {\n")
	for _, step := range c.Apply {
		if step.Table != "" {
			fmt.Fprintf(&b, "        %s.apply();  // stage %d\n", step.Table, step.Stage)
			continue
		}
		const ind = "        "
		if len(step.Guards) > 0 {
			conds := make([]string, len(step.Guards))
			for gi, cond := range step.Guards {
				conds[gi] = renderExpr(cond)
			}
			fmt.Fprintf(&b, "%sif (%s) {\n", ind, strings.Join(conds, " && "))
			fmt.Fprintf(&b, "%s    %s();  // stage %d\n", ind, step.Action, step.Stage)
			fmt.Fprintf(&b, "%s}\n", ind)
		} else {
			fmt.Fprintf(&b, "%s%s();  // stage %d\n", ind, step.Action, step.Stage)
		}
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

func renderStmt(b *strings.Builder, s CStmt, depth int) {
	ind := strings.Repeat("    ", depth)
	switch s := s.(type) {
	case *CAssign:
		fmt.Fprintf(b, "%s%s = %s;\n", ind, renderExpr(s.LHS), renderExpr(s.RHS))
	case *CIf:
		fmt.Fprintf(b, "%sif (%s) {\n", ind, renderExpr(s.Cond))
		for _, inner := range s.Then {
			renderStmt(b, inner, depth+1)
		}
		if s.HasElse {
			fmt.Fprintf(b, "%s} else {\n", ind)
			for _, inner := range s.Else {
				renderStmt(b, inner, depth+1)
			}
		}
		fmt.Fprintf(b, "%s}\n", ind)
	default:
		fmt.Fprintf(b, "%s// unsupported statement elided\n", ind)
	}
}

func renderExpr(e CExpr) string {
	switch e := e.(type) {
	case *CInt:
		return fmt.Sprintf("%d", e.Value)
	case *CBool:
		return fmt.Sprintf("%t", e.Value)
	case *CUnary:
		return kindText(e.Op) + renderExpr(e.X)
	case *CBinary:
		return fmt.Sprintf("(%s %s %s)", renderExpr(e.X), kindText(e.Op), renderExpr(e.Y))
	case *CCall:
		args := make([]string, len(e.Args))
		for i, arg := range e.Args {
			args[i] = renderExpr(arg)
		}
		return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
	case *CRegRef:
		return fmt.Sprintf("%s_%d[%s]", e.Reg, e.Inst, renderExpr(e.Idx))
	case *CFieldRef:
		if e.Elastic && e.Index >= 0 {
			return fmt.Sprintf("%s.%s_%d", e.Struct, e.Field, e.Index)
		}
		return fmt.Sprintf("%s.%s", e.Struct, e.Field)
	case *CName:
		return e.Name
	case *CRaw:
		return e.Text
	default:
		return "/*?*/"
	}
}

func stageList(stages []int) string {
	parts := make([]string, len(stages))
	for i, s := range stages {
		parts[i] = fmt.Sprintf("%d", s)
	}
	return strings.Join(parts, ",")
}

func concreteActionName(pl ilpgen.Placement) string {
	return InstanceName(pl.Action, pl.Iter)
}

// InstanceName is the emitted name of one placed action instance
// ("incr_2"; inelastic instances keep the bare action name).
func InstanceName(action string, iter int) string {
	if iter < 0 {
		return action
	}
	return fmt.Sprintf("%s_%d", action, iter)
}

func sortStrings(s []string) { sort.Strings(s) }

// SortPlacements puts placements in the interpreter's execution order:
// (stage, program order of the action's first invocation, iteration) —
// the same schedule internal/sim runs, so the emitted apply block is
// the text of what the simulator and the translation validator execute.
// internal/tv sorts the layout with the same function to reconcile its
// step schedule against the apply block entry by entry.
func SortPlacements(order []ilpgen.Placement, u *lang.Unit) {
	invOrder := make(map[string]int, len(u.Invocations))
	for _, inv := range u.Invocations {
		if _, ok := invOrder[inv.Action.Name]; !ok {
			invOrder[inv.Action.Name] = inv.Order
		}
	}
	orderOf := func(pl ilpgen.Placement) int {
		if o, ok := invOrder[pl.Action]; ok {
			return o
		}
		return int(^uint(0) >> 1)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Stage != order[j].Stage {
			return order[i].Stage < order[j].Stage
		}
		oi, oj := orderOf(order[i]), orderOf(order[j])
		if oi != oj {
			return oi < oj
		}
		return order[i].Iter < order[j].Iter
	})
}

func kindText(k lang.Kind) string {
	return lang.KindText(k)
}
