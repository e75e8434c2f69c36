package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// This file converts `go vet -json` output into SARIF 2.1.0, the format
// code-scanning UIs ingest (aurora-lint -sarif out.sarif). The vet driver
// emits, on stderr, a stream of `# package` comment lines interleaved with
// one JSON object per package:
//
//	{"pkgpath": {"analyzer": [{"posn": "file:line:col", "message": "..."}]}}
//
// ParseVetJSON tolerates the comments and concatenation; VetResult keeps
// the triple flat so the SARIF conversion and the human echo share one
// representation.

// VetResult is one diagnostic from a `go vet -json` stream.
type VetResult struct {
	Package  string
	Analyzer string
	File     string
	Line     int
	Column   int
	Message  string
}

// vetDiagnostic mirrors the vet JSON diagnostic object.
type vetDiagnostic struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

// ParseVetJSON decodes a `go vet -json` stream: `#` comment lines are
// skipped, and the remaining concatenated JSON objects — one per package,
// mapping package path -> analyzer name -> diagnostics — are flattened
// into a deterministic (file, line, column, analyzer) order.
func ParseVetJSON(r io.Reader) ([]VetResult, error) {
	var clean bytes.Buffer
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	var out []VetResult
	dec := json.NewDecoder(&clean)
	for {
		var unit map[string]map[string][]vetDiagnostic
		if err := dec.Decode(&unit); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("parsing vet json: %w", err)
		}
		for pkg, byAnalyzer := range unit {
			for analyzer, diags := range byAnalyzer {
				for _, d := range diags {
					file, line, col := splitPosn(d.Posn)
					out = append(out, VetResult{
						Package:  pkg,
						Analyzer: analyzer,
						File:     file,
						Line:     line,
						Column:   col,
						Message:  d.Message,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}

// splitPosn parses "path:line:col" (column optional) from the right, so
// the path may itself contain colons.
func splitPosn(posn string) (file string, line, col int) {
	file = posn
	rest := posn
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		if n, err := strconv.Atoi(rest[i+1:]); err == nil {
			col = n
			rest = rest[:i]
			if j := strings.LastIndexByte(rest, ':'); j >= 0 {
				if m, err := strconv.Atoi(rest[j+1:]); err == nil {
					line = m
					file = rest[:j]
					return file, line, col
				}
			}
			// Only one numeric suffix: it was the line, not the column.
			file, line, col = rest, col, 0
		}
	}
	return file, line, col
}

// SARIF 2.1.0 skeleton — only the fields code-scanning consumers require.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders the results as a SARIF 2.1.0 log. File paths are
// rewritten relative to root (typically the repository root) so the
// upload's URIs match the checkout layout; absolute paths outside root are
// kept verbatim.
func WriteSARIF(w io.Writer, results []VetResult, root string) error {
	ruleSet := map[string]bool{}
	rules := []sarifRule{}
	sarifResults := []sarifResult{}
	for _, r := range results {
		if !ruleSet[r.Analyzer] {
			ruleSet[r.Analyzer] = true
			rules = append(rules, sarifRule{
				ID:               r.Analyzer,
				ShortDescription: sarifMessage{Text: ruleDoc(r.Analyzer)},
			})
		}
		uri := r.File
		if root != "" {
			if rel, err := filepath.Rel(root, r.File); err == nil && !strings.HasPrefix(rel, "..") {
				uri = rel
			}
		}
		uri = filepath.ToSlash(uri)
		line := r.Line
		if line < 1 {
			line = 1 // SARIF regions are 1-based; vet posn may omit them
		}
		sarifResults = append(sarifResults, sarifResult{
			RuleID:  r.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: r.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: uri},
					Region:           sarifRegion{StartLine: line, StartColumn: r.Column},
				},
			}},
		})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "aurora-lint", Rules: rules}},
			Results: sarifResults,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
}

// ruleDoc returns the analyzer's one-line doc for the SARIF rule table.
// An unknown rule ID gets a generic line.
func ruleDoc(name string) string {
	for _, a := range Analyzers() {
		if a.Name == name {
			if i := strings.IndexByte(a.Doc, '\n'); i >= 0 {
				return a.Doc[:i]
			}
			return a.Doc
		}
	}
	return "go vet analyzer " + name
}
