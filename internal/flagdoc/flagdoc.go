// Package flagdoc holds a command's flags to the Markdown table that
// documents them. The command's -h output is the source: Parse reads the
// listing flag.PrintDefaults writes, and Check compares it with a table's
// rows — one row for each flag, each row naming a flag, and a default cell
// that, where it opens with a code span, spells the flag's default the way
// the flag package does (Flag.DefValue).
package flagdoc

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Flag is one flag of a -h listing: its name and its default as the flag
// package spells it.
type Flag struct {
	Name, DefValue string
}

// Row is one row of a Markdown table: its first two cells, trimmed.
type Row struct {
	Flag, Default string
}

// zeroDefault is the DefValue of a flag whose default PrintDefaults leaves
// out, a zero value, by the type name it prints ("" for a boolean).
var zeroDefault = map[string]string{
	"": "false", "string": "", "int": "0", "uint": "0", "float": "0", "duration": "0s",
}

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)(?: (\S+))?(?:\t(.*))?$`)
	defaultNote = regexp.MustCompile(` \(default (.*)\)$`)
)

// Parse reads the flags out of usage, the text flag.PrintDefaults writes
// (any line that is neither a flag's nor a continuation of one is skipped).
// A flag's default is the one its usage ends with, or the zero value of the
// type named after it when PrintDefaults prints none.
func Parse(usage string) ([]Flag, error) {
	type listed struct{ name, typ, text string }
	var all []listed
	for _, line := range strings.Split(usage, "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			all = append(all, listed{m[1], m[2], m[3]})
		} else if rest, ok := strings.CutPrefix(line, "    \t"); ok && len(all) > 0 {
			all[len(all)-1].text += "\n" + rest
		}
	}
	flags := make([]Flag, len(all))
	for i, f := range all {
		flags[i].Name = f.name
		m := defaultNote.FindStringSubmatch(f.text)
		switch {
		case m == nil:
			zero, ok := zeroDefault[f.typ]
			if !ok {
				return nil, fmt.Errorf("-%s: no default printed, and no zero value known for type %q", f.name, f.typ)
			}
			flags[i].DefValue = zero
		case f.typ == "string":
			s, err := strconv.Unquote(m[1])
			if err != nil {
				return nil, fmt.Errorf("-%s: default %s: %v", f.name, m[1], err)
			}
			flags[i].DefValue = s
		default:
			flags[i].DefValue = m[1]
		}
	}
	return flags, nil
}

// Rows returns the rows of the first table after the line heading in the
// Markdown doc, its header row and delimiter row left out.
func Rows(doc, heading string) ([]Row, error) {
	lines := strings.Split(doc, "\n")
	at := -1
	for i, line := range lines {
		if strings.TrimSpace(line) == heading {
			at = i
			break
		}
	}
	if at < 0 {
		return nil, fmt.Errorf("no heading %q", heading)
	}
	var rows []Row
	inTable := false
	for _, line := range lines[at+1:] {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) < 2 {
			return nil, fmt.Errorf("row %q has fewer than two cells", line)
		}
		rows = append(rows, Row{Flag: strings.TrimSpace(cells[0]), Default: strings.TrimSpace(cells[1])})
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("no table under %q", heading)
	}
	return rows[2:], nil
}

// Check lists what differs between flags and the rows that document them: a
// flag without a row or with several, a row naming no flag, and a default
// cell whose opening code span is not the flag's DefValue.
func Check(flags []Flag, rows []Row) []string {
	var problems []string
	byName := make(map[string]Flag, len(flags))
	for _, f := range flags {
		byName[f.Name] = f
	}
	seen := map[string]int{}
	for _, r := range rows {
		name, ok := codeSpan(r.Flag)
		f, known := byName[strings.TrimPrefix(name, "-")]
		if !ok || !strings.HasPrefix(name, "-") || !known || r.Flag != "`"+name+"`" {
			problems = append(problems, fmt.Sprintf("row %q names no flag", r.Flag))
			continue
		}
		seen[f.Name]++
		if def, ok := codeSpan(r.Default); ok && def != f.DefValue {
			problems = append(problems, fmt.Sprintf("-%s: the table's default is `%s`, the flag's is `%s`", f.Name, def, f.DefValue))
		}
	}
	for _, f := range flags {
		if n := seen[f.Name]; n != 1 {
			problems = append(problems, fmt.Sprintf("-%s has %d rows, want 1", f.Name, n))
		}
	}
	return problems
}

// codeSpan returns the code span cell opens with, if it opens with one.
func codeSpan(cell string) (string, bool) {
	rest, ok := strings.CutPrefix(cell, "`")
	if !ok {
		return "", false
	}
	span, _, ok := strings.Cut(rest, "`")
	return span, ok
}
