// Package rmeutil holds the pieces shared by the rmevet analyzers: the
// inventory of algorithm packages the shared-memory discipline applies to,
// detection of calls through the memory.Port interface, and the parser for
// the rme: marker-comment language (see DESIGN.md, "Static analysis").
package rmeutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"rme/internal/analysis"
	"rme/internal/analysis/cfg"
)

// MemoryPath is the import path of the shared-memory substrate. The
// analysistest fixtures mirror the real layout, so a single exact path
// serves both.
const MemoryPath = "rme/internal/memory"

// algorithmPackages lists the packages that contain lock algorithm code —
// code that executes during passages, must keep all persistent state in
// the word arena, and touches shared memory only through memory.Port.
var algorithmPackages = map[string]bool{
	"rme/internal/core":    true,
	"rme/internal/arbtree": true,
	"rme/internal/grlock":  true,
	"rme/internal/mcs":     true,
	"rme/internal/yalock":  true,
	"rme/internal/bakery":  true,
	"rme/internal/reclaim": true,
}

// IsAlgorithmPackage reports whether the import path names a lock
// algorithm package subject to the shared-memory discipline.
func IsAlgorithmPackage(path string) bool { return algorithmPackages[path] }

// IsTestFile reports whether the file was compiled from a _test.go source.
// Test harnesses legitimately use goroutines, channels and sync/atomic, so
// every analyzer skips them.
func IsTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.File(file.Pos()).Name(), "_test.go")
}

// PortCall reports whether call is a method call whose receiver's static
// type is the memory.Port or memory.Space interface, returning the
// receiver interface name ("Port" or "Space") and the method name.
func PortCall(info *types.Info, call *ast.CallExpr) (recv, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	tv, found := info.Types[sel.X]
	if !found || tv.Type == nil {
		return "", "", false
	}
	t := tv.Type
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != MemoryPath {
		return "", "", false
	}
	if name := obj.Name(); name == "Port" || name == "Space" {
		return name, sel.Sel.Name, true
	}
	return "", "", false
}

// IsRMW reports whether call is a read-modify-write instruction (FAS or
// CAS) issued through a memory.Port.
func IsRMW(info *types.Info, call *ast.CallExpr) bool {
	recv, method, ok := PortCall(info, call)
	return ok && recv == "Port" && (method == "FAS" || method == "CAS")
}

// IsAddrType reports whether t is (or contains, through slices, arrays,
// maps or pointers) the memory.Addr type — the signature of persistent
// state held by a struct.
func IsAddrType(t types.Type) bool {
	seen := map[types.Type]bool{}
	var walk func(types.Type) bool
	walk = func(t types.Type) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == MemoryPath && obj.Name() == "Addr" {
				return true
			}
			return walk(named.Underlying())
		}
		switch u := t.(type) {
		case *types.Slice:
			return walk(u.Elem())
		case *types.Array:
			return walk(u.Elem())
		case *types.Pointer:
			return walk(u.Elem())
		case *types.Map:
			return walk(u.Key()) || walk(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if walk(u.Field(i).Type()) {
					return true
				}
			}
		}
		return false
	}
	return walk(t)
}

// Marker kinds.
type MarkerKind int

const (
	// KindSensitive marks an RMW instruction as sensitive
	// (Definition 3.3): a crash immediately after it can leave shared
	// memory in a state another process may observe as inconsistent.
	KindSensitive MarkerKind = iota + 1
	// KindNonsensitive marks an RMW instruction as not sensitive and
	// carries the required justification.
	KindNonsensitive
	// KindInventory declares how many sensitive instructions the file
	// contains ("rme:sensitive-instructions <n>").
	KindInventory
	// KindAllow suppresses a named analyzer on the next line
	// ("rme:allow(analyzer: reason)").
	KindAllow
	// KindRMWLoop marks a loop whose body performs an RMW as a reviewed,
	// bounded-RMR retry loop ("rme:rmw-loop(<why>)"); the spinrmr
	// analyzer requires it on every such loop.
	KindRMWLoop
	// KindInvalid is a marker that failed to parse; Err explains why.
	KindInvalid
)

// Marker is one parsed rme: marker comment.
type Marker struct {
	Kind   MarkerKind
	Line   int       // line the marker comment starts on
	Pos    token.Pos // position of the comment
	Reason string    // KindNonsensitive justification
	Count  int       // KindInventory declared count
	Allow  string    // KindAllow analyzer name
	Err    string    // KindInvalid explanation
}

// FileMarkers indexes the markers of one file by line.
type FileMarkers struct {
	ByLine map[int][]Marker
	All    []Marker
}

var markerRe = regexp.MustCompile(`rme:([a-zA-Z][a-zA-Z-]*)(\(([^)]*)\))?`)

// wantTailRe matches the analysistest expectation tail of a fixture
// comment; markers are only parsed from the text before it, so a want
// regexp may mention marker names without being mistaken for one.
var wantTailRe = regexp.MustCompile(`//\s*want\s`)

// ParseMarkers extracts every rme: marker from the file's comments.
func ParseMarkers(fset *token.FileSet, file *ast.File) *FileMarkers {
	fm := &FileMarkers{ByLine: map[int][]Marker{}}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if loc := wantTailRe.FindStringIndex(text); loc != nil {
				text = text[:loc[0]]
			}
			for _, idx := range markerRe.FindAllStringSubmatchIndex(text, -1) {
				m := parseOne(text, idx)
				m.Line = fset.Position(c.Pos()).Line +
					strings.Count(text[:idx[0]], "\n")
				m.Pos = c.Pos()
				fm.ByLine[m.Line] = append(fm.ByLine[m.Line], m)
				fm.All = append(fm.All, m)
			}
		}
	}
	return fm
}

// parseOne interprets one regexp match (submatch index pairs idx) inside
// comment text.
func parseOne(text string, idx []int) Marker {
	name := text[idx[2]:idx[3]]
	hasParens := idx[4] >= 0
	args := ""
	if hasParens {
		args = strings.TrimSpace(text[idx[6]:idx[7]])
	}
	switch name {
	case "sensitive":
		if hasParens {
			return Marker{Kind: KindInvalid, Err: "rme:sensitive takes no argument"}
		}
		return Marker{Kind: KindSensitive}
	case "nonsensitive":
		if !hasParens || args == "" {
			return Marker{Kind: KindInvalid,
				Err: "rme:nonsensitive requires a justification: rme:nonsensitive(<why>)"}
		}
		return Marker{Kind: KindNonsensitive, Reason: args}
	case "sensitive-instructions":
		// The count follows the keyword: rme:sensitive-instructions <n>.
		rest := text[idx[1]:]
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return Marker{Kind: KindInvalid,
				Err: "rme:sensitive-instructions requires a count: rme:sensitive-instructions <n>"}
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil || n < 0 {
			return Marker{Kind: KindInvalid,
				Err: "rme:sensitive-instructions requires a non-negative count, got " +
					strconv.Quote(fields[0])}
		}
		return Marker{Kind: KindInventory, Count: n}
	case "rmw-loop":
		if !hasParens || args == "" {
			return Marker{Kind: KindInvalid,
				Err: "rme:rmw-loop requires a justification: rme:rmw-loop(<why>)"}
		}
		return Marker{Kind: KindRMWLoop, Reason: args}
	case "allow":
		analyzer, reason, found := strings.Cut(args, ":")
		analyzer = strings.TrimSpace(analyzer)
		if !hasParens || analyzer == "" || !found || strings.TrimSpace(reason) == "" {
			return Marker{Kind: KindInvalid,
				Err: "rme:allow requires an analyzer and reason: rme:allow(<analyzer>: <why>)"}
		}
		return Marker{Kind: KindAllow, Allow: analyzer, Reason: strings.TrimSpace(reason)}
	default:
		return Marker{Kind: KindInvalid, Err: "unknown marker rme:" + name}
	}
}

// Suppressed reports whether an rme:allow marker on the diagnostic's line
// or the line above suppresses a diagnostic of pass.Analyzer, and records
// the use through pass.UsedAllow so the driver can audit markers that no
// longer suppress anything.
func Suppressed(pass *analysis.Pass, file *ast.File, fm *FileMarkers, line int) bool {
	name := pass.Analyzer.Name
	for _, l := range []int{line, line - 1} {
		for _, m := range fm.ByLine[l] {
			if m.Kind == KindAllow && m.Allow == name {
				if pass.UsedAllow != nil {
					pass.UsedAllow(pass.Fset.File(file.Pos()).Name(), l, name)
				}
				return true
			}
		}
	}
	return false
}

// PortOps tallies the memory.Port calls syntactically contained in a
// node, using cfg.Inspect's traversal convention (function literal bodies
// and range bodies excluded), so it composes with CFG block nodes.
type PortOps struct {
	Reads  int
	Writes int
	RMWs   int
	Pauses int
}

// PortOpsIn classifies every Port call under n.
func PortOpsIn(info *types.Info, n ast.Node) PortOps {
	var ops PortOps
	cfg.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, method, ok := PortCall(info, call); ok && recv == "Port" {
			switch method {
			case "Read":
				ops.Reads++
			case "Write":
				ops.Writes++
			case "FAS", "CAS":
				ops.RMWs++
			case "Pause":
				ops.Pauses++
			}
		}
		return true
	})
	return ops
}

// HasRMWLoop reports whether an rme:rmw-loop(<why>) marker sits on the
// given line or the line above (the same attachment rule as rme:allow).
func (fm *FileMarkers) HasRMWLoop(line int) bool {
	for _, l := range []int{line, line - 1} {
		for _, m := range fm.ByLine[l] {
			if m.Kind == KindRMWLoop {
				return true
			}
		}
	}
	return false
}

// AttachedTo reports the marker of kind KindSensitive or KindNonsensitive
// attached to the given line: on the line itself, or — unless the line
// above holds its own RMW, to which an inline marker there belongs — on
// the line above. lineTaken reports whether a line holds an RMW.
func (fm *FileMarkers) AttachedTo(line int, lineTaken func(int) bool) (Marker, bool) {
	for _, m := range fm.ByLine[line] {
		if m.Kind == KindSensitive || m.Kind == KindNonsensitive {
			return m, true
		}
	}
	if !lineTaken(line - 1) {
		for _, m := range fm.ByLine[line-1] {
			if m.Kind == KindSensitive || m.Kind == KindNonsensitive {
				return m, true
			}
		}
	}
	return Marker{}, false
}
