package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"sqlcheck/internal/schema"
	"sqlcheck/internal/storage"
)

// insertChunk is how many rows one rendered INSERT carries.
const insertChunk = 256

// renderFixture renders a corpus database as the DDL+DML script a
// tenant registers with, and returns the write generator state of each
// table. The corpus builds its databases at the storage layer; a tenant
// can only arrive as SQL.
func renderFixture(db *storage.Database) (string, []*dmlTable, error) {
	var b strings.Builder
	var tables []*dmlTable
	for _, t := range db.Tables() {
		if len(t.Indexes()) > 0 || len(t.ForeignKeys()) > 0 || len(t.Checks()) > 0 {
			return "", nil, fmt.Errorf("table %s: indexes, foreign keys and checks are not rendered", t.Name)
		}
		dt := &dmlTable{name: t.Name, pk: -1}
		defs := make([]string, len(t.Cols))
		for i, c := range t.Cols {
			defs[i] = c.Name + " " + sqlType(c.Class)
			if c.NotNull {
				defs[i] += " NOT NULL"
			}
			dt.cols = append(dt.cols, c.Name)
		}
		if pk := t.PrimaryKey(); len(pk) > 0 {
			names := make([]string, len(pk))
			for i, o := range pk {
				names[i] = t.Cols[o].Name
			}
			defs = append(defs, "PRIMARY KEY ("+strings.Join(names, ", ")+")")
			if len(pk) == 1 && t.Cols[pk[0]].Class == schema.ClassInteger {
				dt.pk = pk[0]
			}
		}
		fmt.Fprintf(&b, "CREATE TABLE %s (%s);\n", t.Name, strings.Join(defs, ", "))
		t.ScanReadOnly(func(_ int64, r storage.Row) bool {
			vals := make([]string, len(r))
			for i, v := range r {
				vals[i] = sqlLiteral(v)
			}
			dt.rows = append(dt.rows, vals)
			if dt.pk >= 0 {
				dt.keys = append(dt.keys, r[dt.pk].I)
				dt.nextKey = max(dt.nextKey, r[dt.pk].I+1)
			}
			return true
		})
		if len(dt.rows) == 0 {
			return "", nil, fmt.Errorf("table %s is empty", t.Name)
		}
		cols := strings.Join(dt.cols, ", ")
		for start := 0; start < len(dt.rows); start += insertChunk {
			fmt.Fprintf(&b, "INSERT INTO %s (%s) VALUES ", t.Name, cols)
			for i, row := range dt.rows[start:min(start+insertChunk, len(dt.rows))] {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString("(" + strings.Join(row, ", ") + ")")
			}
			b.WriteString(";\n")
		}
		tables = append(tables, dt)
	}
	return b.String(), tables, nil
}

func sqlType(c schema.TypeClass) string {
	switch c {
	case schema.ClassInteger:
		return "INTEGER"
	case schema.ClassExactNumeric:
		return "NUMERIC(12,2)"
	case schema.ClassApproxNumeric:
		return "FLOAT"
	case schema.ClassChar:
		return "VARCHAR(80)"
	case schema.ClassBool:
		return "BOOLEAN"
	case schema.ClassDate:
		return "DATE"
	case schema.ClassTimeTZ:
		return "TIMESTAMP WITH TIME ZONE"
	case schema.ClassTimeNoTZ:
		return "TIMESTAMP"
	default:
		return "TEXT"
	}
}

func sqlLiteral(v storage.Value) string {
	switch v.Kind {
	case storage.KindNull:
		return "NULL"
	case storage.KindInt:
		return strconv.FormatInt(v.I, 10)
	case storage.KindFloat:
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case storage.KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case storage.KindTime:
		ts := time.UnixMicro(v.I).UTC().Format("2006-01-02 15:04:05")
		if v.TZKnown {
			ts += fmt.Sprintf("%+03d", v.TZOffsetMin/60)
		}
		return "'" + ts + "'"
	default:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
}

// dmlTable generates writes to one tenant table that keep its data
// shaped as the fixture made it: inserted rows copy existing values,
// updates move a column value to one another row holds, and deletes
// only remove rows the generator inserted. Every write generated is
// sent, in ticket order per tenant, so a delete finds the row its
// insert added and verification can replay the acknowledged sequence.
type dmlTable struct {
	name     string
	cols     []string
	pk       int // ordinal of a single integer primary key, or -1
	rows     [][]string
	keys     []int64 // fixture keys: present for the whole run
	nextKey  int64
	inserted []int64 // generator-inserted keys still present
}

// next returns one DML statement against the table.
func (t *dmlTable) next(r *rand.Rand) string {
	src := t.rows[r.IntN(len(t.rows))]
	x := r.Float64()
	switch {
	case t.pk >= 0 && x < 0.3:
		col := r.IntN(len(t.cols))
		if col == t.pk {
			col = (col + 1) % len(t.cols)
		}
		if col == t.pk { // single-column table: nothing but the key
			break
		}
		return fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s = %d",
			t.name, t.cols[col], src[col], t.cols[t.pk], t.keys[r.IntN(len(t.keys))])
	case t.pk >= 0 && x < 0.5 && len(t.inserted) > 0:
		i := r.IntN(len(t.inserted))
		k := t.inserted[i]
		t.inserted[i] = t.inserted[len(t.inserted)-1]
		t.inserted = t.inserted[:len(t.inserted)-1]
		return fmt.Sprintf("DELETE FROM %s WHERE %s = %d", t.name, t.cols[t.pk], k)
	}
	vals := append([]string(nil), src...)
	if t.pk >= 0 {
		vals[t.pk] = strconv.FormatInt(t.nextKey, 10)
		t.inserted = append(t.inserted, t.nextKey)
		t.nextKey++
	}
	return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", t.name, strings.Join(t.cols, ", "), strings.Join(vals, ", "))
}
