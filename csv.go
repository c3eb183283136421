package iq

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"iq/internal/vec"
)

// CSV loading helpers matching cmd/datagen's output format, so generated
// workloads round-trip into a System. strconv accepts "NaN" and "Inf"; the
// loaders reject them, since a non-finite score breaks top-k ranking.

// ObjectsCSV parses an object table. The first row is a header; an "id"
// column, if present, is ignored (row order defines object indices). All
// other columns are numeric attributes, returned in header order along with
// their names.
func ObjectsCSV(r io.Reader) (objects []Vector, attrNames []string, err error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("iq: reading CSV header: %w", err)
	}
	idCol := -1
	for i, name := range header {
		if strings.EqualFold(strings.TrimSpace(name), "id") {
			idCol = i
			continue
		}
		attrNames = append(attrNames, strings.TrimSpace(name))
	}
	if len(attrNames) == 0 {
		return nil, nil, fmt.Errorf("iq: CSV has no attribute columns")
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("iq: CSV line %d: %w", line, err)
		}
		row := make(Vector, 0, len(attrNames))
		for i, field := range rec {
			if i == idCol {
				continue
			}
			x, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("iq: CSV line %d column %q: %w", line, header[i], err)
			}
			row = append(row, x)
		}
		if len(row) != len(attrNames) {
			return nil, nil, fmt.Errorf("iq: CSV line %d has %d attributes, want %d", line, len(row), len(attrNames))
		}
		if !vec.AllFinite(row) {
			return nil, nil, fmt.Errorf("iq: CSV line %d has non-finite attributes %v", line, row)
		}
		objects = append(objects, row)
	}
	return objects, attrNames, nil
}

// QueriesCSV parses a query table with header columns id, k, and one column
// per weight (any names). Weight columns are taken in header order.
func QueriesCSV(r io.Reader) ([]Query, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("iq: reading CSV header: %w", err)
	}
	idCol, kCol := -1, -1
	var weightCols []int
	for i, name := range header {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "id":
			idCol = i
		case "k":
			kCol = i
		default:
			weightCols = append(weightCols, i)
		}
	}
	if kCol == -1 {
		return nil, fmt.Errorf("iq: query CSV needs a k column")
	}
	if len(weightCols) == 0 {
		return nil, fmt.Errorf("iq: query CSV has no weight columns")
	}
	var out []Query
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("iq: CSV line %d: %w", line, err)
		}
		q := Query{ID: len(out)}
		if idCol >= 0 {
			id, err := strconv.Atoi(strings.TrimSpace(rec[idCol]))
			if err != nil {
				return nil, fmt.Errorf("iq: CSV line %d id: %w", line, err)
			}
			q.ID = id
		}
		k, err := strconv.Atoi(strings.TrimSpace(rec[kCol]))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("iq: CSV line %d has invalid k %q", line, rec[kCol])
		}
		q.K = k
		q.Point = make(Vector, 0, len(weightCols))
		for _, c := range weightCols {
			x, err := strconv.ParseFloat(strings.TrimSpace(rec[c]), 64)
			if err != nil {
				return nil, fmt.Errorf("iq: CSV line %d column %q: %w", line, header[c], err)
			}
			q.Point = append(q.Point, x)
		}
		if !vec.AllFinite(q.Point) {
			return nil, fmt.Errorf("iq: CSV line %d has non-finite weights %v", line, q.Point)
		}
		out = append(out, q)
	}
	return out, nil
}
