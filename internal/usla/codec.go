package usla

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseText reads USLA entries in the one-line-per-rule text form used
// throughout this repository's configs and examples:
//
//	# provider  consumer        resource  share
//	*           atlas           cpu       30
//	site-004    atlas.higgs     cpu       50+
//	*           cms             storage   20-
//
// '#' starts a comment; blank lines are skipped.
func ParseText(r io.Reader) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 4 {
			return nil, fmt.Errorf("usla: line %d: want 4 fields (provider consumer resource share), got %d", lineNo, len(fields))
		}
		consumer, err := ParsePath(fields[1])
		if err != nil {
			return nil, fmt.Errorf("usla: line %d: %w", lineNo, err)
		}
		share, err := ParseShare(fields[3])
		if err != nil {
			return nil, fmt.Errorf("usla: line %d: %w", lineNo, err)
		}
		e := Entry{
			Provider: fields[0],
			Consumer: consumer,
			Resource: Resource(fields[2]),
			Share:    share,
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("usla: line %d: %w", lineNo, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// ParseTextString is ParseText over a string.
func ParseTextString(s string) ([]Entry, error) {
	return ParseText(strings.NewReader(s))
}
