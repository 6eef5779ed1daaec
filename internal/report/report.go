// Package report renders the reproduction's experiment outputs: aligned
// ASCII tables for terminals and CSV series for plotting, used by the
// cmd/hibench and cmd/hisweep harnesses that regenerate the paper's
// tables and figures.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// Table writes an aligned text table with a header rule.
func Table(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	rule := make([]string, len(headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, r := range rows {
		line(r)
	}
}

// CSV writes headers and rows in RFC-4180 form.
func CSV(w io.Writer, headers []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile creates the file at path, hands it to write and closes it,
// returning the first error of the three — a failed Close can lose
// buffered data, so it is an error like any other.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// CSVFile writes headers and rows as a CSV file at path.
func CSVFile(path string, headers []string, rows [][]string) error {
	return WriteFile(path, func(w io.Writer) error { return CSV(w, headers, rows) })
}

// Pct formats a [0,1] ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// F formats a float with the given precision.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// Days formats a lifetime in days.
func Days(v float64) string { return fmt.Sprintf("%.2f d", v) }

// MW formats a power in milliwatts.
func MW(v float64) string { return fmt.Sprintf("%.4f mW", v) }
