package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// sampleRe matches one exposition sample line:
// name{optional="labels"} value [timestamp].
var sampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)(?:\s+(-?\d+))?$`)

// labelRe matches one k="v" pair inside a label set.
var labelRe = regexp.MustCompile(
	`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$`)

// ParseText validates a Prometheus text-format exposition and returns
// the declared metric families as a name → type map. It checks that
// every sample line parses, that every sample belongs to a family
// declared with a # TYPE line, and that every histogram family carries
// an le="+Inf" bucket plus _sum and _count series. The scrape tests of
// sosd and the front run it against a live exposition.
func ParseText(r io.Reader) (map[string]string, error) {
	families := make(map[string]string)
	infSeen := make(map[string]bool)
	sumSeen := make(map[string]bool)
	countSeen := make(map[string]bool)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, families); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		name, labels, value := m[1], m[2], m[3]
		if _, err := strconv.ParseFloat(strings.TrimPrefix(value, "+"), 64); err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %w", lineNo, value, err)
		}
		if labels != "" {
			if err := checkLabels(labels); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
		fam, suffix := familyOf(name, families)
		if fam == "" {
			return nil, fmt.Errorf("line %d: sample %q has no # TYPE declaration", lineNo, name)
		}
		if families[fam] == "histogram" {
			switch suffix {
			case "_bucket":
				if strings.Contains(labels, `le="+Inf"`) {
					infSeen[fam] = true
				}
			case "_sum":
				sumSeen[fam] = true
			case "_count":
				countSeen[fam] = true
			case "":
				return nil, fmt.Errorf("line %d: bare sample %q for histogram family", lineNo, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for fam, kind := range families {
		if kind != "histogram" {
			continue
		}
		if !infSeen[fam] || !sumSeen[fam] || !countSeen[fam] {
			return nil, fmt.Errorf("histogram family %q missing le=\"+Inf\" bucket, _sum, or _count", fam)
		}
	}
	return families, nil
}

func parseComment(line string, families map[string]string) error {
	fields := strings.Fields(line)
	if len(fields) >= 2 && fields[1] == "TYPE" {
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, kind := fields[2], fields[3]
		if !validName(name) {
			return fmt.Errorf("invalid family name %q", name)
		}
		switch kind {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %q", kind, name)
		}
		if prev, ok := families[name]; ok && prev != kind {
			return fmt.Errorf("family %q declared twice with types %s and %s", name, prev, kind)
		}
		families[name] = kind
	}
	// HELP lines and free comments need no validation beyond being comments.
	return nil
}

func checkLabels(labels string) error {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	if inner == "" {
		return nil
	}
	// Split on commas that sit between pairs; label values containing
	// commas are rare in our output and still parse because each piece
	// must independently match k="v".
	for _, pair := range splitLabelPairs(inner) {
		if !labelRe.MatchString(pair) {
			return fmt.Errorf("malformed label pair %q", pair)
		}
	}
	return nil
}

// splitLabelPairs splits k1="v1",k2="v2" on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	var b strings.Builder
	inQuote := false
	escaped := false
	for _, c := range s {
		switch {
		case escaped:
			escaped = false
			b.WriteRune(c)
		case c == '\\':
			escaped = true
			b.WriteRune(c)
		case c == '"':
			inQuote = !inQuote
			b.WriteRune(c)
		case c == ',' && !inQuote:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteRune(c)
		}
	}
	out = append(out, b.String())
	return out
}

// familyOf resolves a sample name to its declared family, honoring the
// histogram _bucket/_sum/_count suffixes. Returns the family name and
// the suffix consumed ("" for an exact match).
func familyOf(name string, families map[string]string) (string, string) {
	if _, ok := families[name]; ok {
		return name, ""
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if kind, ok := families[base]; ok && (kind == "histogram" || kind == "summary") {
				return base, suffix
			}
		}
	}
	return "", ""
}
